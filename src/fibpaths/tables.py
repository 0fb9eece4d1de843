"""Published reference counts for the four families, k = 1..4.

Data only, with no function and no import: `families.row_diff` (the CLI
`tables` subcommand) and `families.verify_methods` compare the closed
counts with these rows.  Grand rows start at path length 1 (the published
table omits the empty path); the other rows start at length 0.
"""

__all__ = ["PUBLISHED"]

TABLE_FIB = {
    1: (1, 1, 3, 8, 23, 67, 199, 600, 1834, 5674, 17743),
    2: (1, 1, 4, 13, 47, 168, 610, 2226, 8185, 30283, 112736),
    3: (1, 1, 5, 20, 89, 391, 1735, 7712, 34402, 153898, 690499),
    4: (1, 1, 6, 29, 155, 820, 4366, 23262, 124153, 663523, 3551158),
}

TABLE_GRAND = {
    1: (1, 4, 11, 36, 115, 378, 1251, 4182, 14073, 47634),
    2: (1, 5, 16, 63, 237, 920, 3573, 14005, 55156, 218359),
    3: (1, 6, 23, 108, 487, 2248, 10371, 48122, 223977, 1046120),
    4: (1, 7, 32, 177, 949, 5172, 28173, 153963, 842940, 4624581),
}

TABLE_PREFIX = {
    1: (1, 2, 6, 19, 62, 205, 684, 2298, 7764, 26355, 89820),
    2: (1, 2, 7, 26, 101, 396, 1564, 6203, 24693, 98605, 394853),
    3: (1, 2, 8, 35, 162, 757, 3558, 16766, 79176, 374579, 1775082),
    4: (1, 2, 9, 46, 251, 1384, 7668, 42555, 236463, 1315281, 7322967),
}

TABLE_GRAND_PREFIX = {
    1: (1, 3, 10, 35, 124, 441, 1570, 5591, 19912, 70917, 252574),
    2: (1, 3, 11, 44, 181, 751, 3124, 13005, 54151, 225492, 938997),
    3: (1, 3, 12, 55, 264, 1285, 6280, 30727, 150392, 736157, 3603528),
    4: (1, 3, 13, 68, 379, 2151, 12268, 70061, 400249, 2286780, 13065595),
}

# family -> (rows keyed by k, path length of the first column)
PUBLISHED = {
    "fib": (TABLE_FIB, 0),
    "grand": (TABLE_GRAND, 1),
    "prefix": (TABLE_PREFIX, 0),
    "grand-prefix": (TABLE_GRAND_PREFIX, 0),
}
