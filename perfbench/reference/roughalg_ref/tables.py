"""Bundled small operation tables used by tests, docs and the CLI fixtures.

The same tables ship as text fixtures under tables/ at the repository
root; a test keeps file and constant in sync.
"""

from .algebra import FiniteAlgebra

# xor on {0..3} (Klein four-group difference table); satisfies B, BH and BO
# and has the two-sided identity 0.  The fourth element is written "e" in
# some presentations and is encoded as 3 here.
B4 = FiniteAlgebra(4, [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
])

# order-5 table satisfying B, BH and BO; bundled as the stock BO example.
BO5 = FiniteAlgebra(5, [
    [0, 2, 1, 4, 3],
    [1, 0, 3, 2, 4],
    [2, 4, 0, 3, 1],
    [3, 1, 4, 0, 2],
    [4, 3, 2, 1, 0],
])

# order-4 table satisfying BH but neither B nor BO.
BH4 = FiniteAlgebra(4, [
    [0, 1, 0, 0],
    [1, 0, 0, 0],
    [2, 2, 0, 3],
    [3, 3, 3, 0],
])

# order-4 table that fails C1 (at 2), C2 (at 2) and C6 (at 1): it satisfies
# none of the bundled axiom systems.  Kept verbatim as a negative fixture
# for the regression suite; do not "repair" it.
Z4 = FiniteAlgebra(4, [
    [0, 1, 2, 3],
    [1, 0, 0, 1],
    [0, 0, 2, 2],
    [0, 1, 2, 3],
])

BUNDLED = {"b4": B4, "bo5": BO5, "bh4": BH4, "z4": Z4}
