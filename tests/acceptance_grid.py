"""The fixed verification grid used by the acceptance suite.

Every configuration stays within n <= 6, m <= 3 so that the enumeration
oracle and the exact solver both apply; the grid spans both intruders, both
threshold profiles (single-threshold and two-threshold with a linear
reconstruction curve), tight and unbounded capacities, uniform and skewed
routing, and the degenerate attack probabilities 0 and 1.
"""

from fractions import Fraction as F

from dispersal_mc import Distribution, ModelParams, lt_linear_profile
from dispersal_mc.models import thresholds

# (n, m) -> two-threshold pair with k1 < k2 where possible
_LT_THRESHOLDS = {2: (1, 2), 3: (2, 3), 4: (2, 3), 5: (3, 4), 6: (4, 5)}

_A_PATTERNS = {
    1: [(F(1, 2),), (F(3, 10),), (F(4, 5),)],
    2: [(F(1, 10), F(3, 10)), (F(1, 2), F(1, 4)), (F(7, 10), F(9, 10))],
    3: [(F(1, 10), F(1, 5), F(3, 10)), (F(2, 5), F(1, 2), F(3, 5)),
        (F(1, 4), F(1, 4), F(1, 4))],
}

_SKEWED_P = {
    2: (F(5, 8), F(3, 8)),
    3: (F(1, 2), F(1, 4), F(1, 4)),
}


def _tight_capacity(n: int, m: int) -> int:
    return -(-n // m)


def build_grid():
    """List of (name, params, attacker) covering the published grid."""
    configs = []
    index = 0
    for n in (2, 3, 4, 5, 6):
        for m in (1, 2, 3):
            a = _A_PATTERNS[m][index % len(_A_PATTERNS[m])]
            skew = index % 3 == 2 and m > 1
            p = _SKEWED_P[m] if skew else Distribution.uniform(m)
            # tight capacity exercises the re-pick semantics; unbounded does not
            c = _tight_capacity(n, m) if index % 2 == 0 else n
            if skew and c < n:
                c = n  # skewed routing with tight capacity slows convergence
            for profile in ("rs", "lt"):
                if profile == "rs":
                    k1, k2, x = thresholds("rs", n, ratio=F(7, 10))
                else:
                    k1, k2 = _LT_THRESHOLDS[n]
                    x = lt_linear_profile(k1, k2, n)
                params = ModelParams(n=n, m=m, c=c, k1=k1, k2=k2, a=a, x=x, p=p)
                for attacker in ("slice", "provider"):
                    configs.append((f"{profile}-n{n}-m{m}-c{c}-{attacker}",
                                    params, attacker))
            index += 1
    # degenerate interception probabilities
    zero = ModelParams(n=3, m=2, c=3, k1=2, k2=3, a=(F(0), F(0)),
                       x=lt_linear_profile(2, 3, 3), p=Distribution.uniform(2))
    one = ModelParams(n=3, m=2, c=3, k1=2, k2=3, a=(F(1), F(1)),
                      x=lt_linear_profile(2, 3, 3), p=Distribution.uniform(2))
    for attacker in ("slice", "provider"):
        configs.append((f"zero-attack-{attacker}", zero, attacker))
        configs.append((f"certain-attack-{attacker}", one, attacker))
    return configs
