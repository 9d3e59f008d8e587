"""Every numeric threshold of fairtopk, named once by what it separates.

Attributes, scores and weights all lie in [0, 1], so an absolute threshold
here is on that unit scale; a relative one says what it scales with.
"""

# two scores this close are tied at the cutoff; a witness must clear it by more
TIE_EPS = 1e-9
# a weight whose components sum to 1 within this is kept as given
SIMPLEX_SUM_TOL = 1e-12
# a weight-space row violated by at most this holds; points this close are one
FEAS_TOL = 1e-9
# a coefficient, row norm or objective step at most this is zero
ZERO = 1e-12
# float rounding only: sweep positions this close are equal.  sweep2d and
# brute_select_2d scale it by 1 + |key| to compare objective keys, as a utility
# key of 16 or more is spaced wider than 2 * KEY_EPS; verify compares keys with
# it absolutely
KEY_EPS = 1e-15
# a fraction times k this close to an integer rounds to it: exact count/k bounds
FRACTION_EPS = 1e-9
# simplex: a reduced cost above minus this prices no column in
REDUCED_COST_TOL = 1e-10
# simplex: pivot entries this small are drift, and pivoting on them amplifies it
PIVOT_TOL = 1e-9
# simplex: ratio-test ratios within this, relative to 1 + |ratio|, are tied
RATIO_TIE = 1e-9
# simplex: a right-hand side less than this below zero after a pivot becomes 0
RHS_SNAP = 1e-11
# simplex phase 1: an artificial total this far above zero is no drift
PHASE_ONE_GAP = 1e-3
# simplex phase 1: a re-derived artificial total above this is infeasible
PHASE_ONE_TOL = 1e-7
# milp: a binary this close to 0 or 1 is integral
INT_TOL = 1e-6
# milp: a bound this close to the incumbent cannot improve it
CUT_TOL = 1e-12
