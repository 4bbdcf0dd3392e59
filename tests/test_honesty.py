"""Truncation honesty of the builders: coefficients below the truncation a
build claims do not change when it is built to more terms.

Each builder runs at N and at N + k for k in {1, 5}; the first build must
equal the second truncated to the first's truncation, part by part for a
log series.
"""

import pytest

from mldelab import catalog, characters, forms
from mldelab.mlde import build_flat, frobenius_solve, frobenius_solve_log
from mldelab.series import LogSeries, Q

# the rows' own builds: forms.form serves a lower order by truncating its
# highest build, which would make the check compare a series with itself
_NAMED = {name: row.build for name, row in forms.REGISTRY.items()}

_SOLVES = {
    "plain 6/5 at -1/10": lambda n: frobenius_solve(build_flat(Q(6, 5), n), Q(-1, 10), n),
    # 1/2 is a double root of flat(6), so the log sweep needs no steps past n
    "log 6 at 1/2": lambda n: frobenius_solve_log(build_flat(6, n), Q(1, 2), n),
}

# order 0 is refused by these two builders (no term past the leading one)
_CHARACTERS = {f"minimal {h}": (lambda n, h=h: characters.minimal_character(h, n))
               for h in characters.MINIMAL_WEIGHTS}
_CHARACTERS["theta [[6]] + 1/6"] = lambda n: characters.lattice_theta(
    characters.lattice([[6]], [Q(1, 6)]), n)

CASES = ([(f"form {name}", build, n) for name, build in _NAMED.items() for n in (0, 5, 25)]
         + [(f"entry {label}", lambda n, label=label: catalog.build_entry(label, n), n)
            for label in catalog.labels() for n in (0, 8)]
         + [(name, build, n) for name, build in {**_SOLVES, **_CHARACTERS}.items()
            for n in (1, 8, 25)])


def _parts(f):
    return (f.plain, f.log_part) if isinstance(f, LogSeries) else (f,)


@pytest.mark.parametrize("name, build, n", CASES, ids=[f"{c[0]}-{c[2]}" for c in CASES])
def test_builder_truncation_is_honest(name, build, n):
    short = build(n)
    for k in (1, 5):
        for s, longer in zip(_parts(short), _parts(build(n + k))):
            assert longer.truncation >= s.truncation, (name, n, k)
            assert longer.truncate(s.truncation) == s, (name, n, k)
