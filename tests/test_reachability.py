"""Every function of ``src/octaboson`` is entered by some CLI run or demo,
unless the allowlist names it with its reason; and no allowlisted function
is entered.

``reachability_census.py`` runs a fixed argv set and the four demos in a
fresh interpreter under ``sys.setprofile``.  The functions defined are read
from the compiled sources: every ``def`` at any depth, by module and
qualified name; lambdas, comprehensions and class bodies are not functions
here.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "octaboson"

#: traced by name in bench/spans.py TARGETS, or called only by such a name;
#: they leave src/ once the benchmark traces the layers the runs pass through
TRACED = "bench/spans.py traces it or its caller"
FAILURE = "runs only where a check or an invariant fails"
TESTS = "read by the tests only"

ALLOWLIST = {
    "cli._mismatch_fields": FAILURE,
    "hallittlewood.HLPolynomial.poly": TRACED,
    "hallittlewood.InvariantError.__init__": FAILURE,
    "hallittlewood.expand_in_monomials": TRACED,
    "hallittlewood.reconstruct_from_expansion": TRACED,
    "laurent.LaurentPoly.__add__": TESTS,
    "laurent.LaurentPoly.__eq__": TRACED,
    "laurent.LaurentPoly.__hash__": TESTS,
    "laurent.LaurentPoly.__init__": TRACED,
    "laurent.LaurentPoly.__mul__": TRACED,
    "laurent.LaurentPoly.__neg__": TESTS,
    "laurent.LaurentPoly.__pow__": TESTS,
    "laurent.LaurentPoly.__repr__": TESTS,
    "laurent.LaurentPoly.__rsub__": TESTS,
    "laurent.LaurentPoly.__sub__": TESTS,
    "laurent.LaurentPoly._check_same_ring": TRACED,
    "laurent.LaurentPoly._trusted": TRACED,
    "laurent.LaurentPoly.constant": TESTS,
    "laurent.LaurentPoly.evaluate_exact": TRACED,
    "laurent.LaurentPoly.is_zero": TESTS,
    "laurent.LaurentPoly.monomial": TESTS,
    "laurent.LaurentPoly.one": TESTS,
    "laurent.LaurentPoly.shift": TESTS,
    "laurent.LaurentPoly.variable": TESTS,
    "laurent.LaurentPoly.zero": TESTS,
    "laurent.NotDivisibleError.__init__": FAILURE,
    "laurent._as_coeff": TRACED,
    "laurent.apply_w": TRACED,
    "laurent.div_binomial_exact": TRACED,
    "partitions.SignedPermutation.__post_init__": TRACED,
    "partitions.SignedPermutation.apply": TRACED,
    "partitions.SignedPermutation.identity": TESTS,
    "partitions.SignedPermutation.size": TRACED,
    "partitions.hyperoctahedral_group": TRACED,
    "partitions.lower_set": TESTS,
    "qboson.LatticeFunction.zero": TESTS,
    "qboson._reduced_check.<locals>.failure": FAILURE,
    "torus.aliasing_bound": TESTS,
}


def _functions(code) -> set[str]:
    """Qualified names of the functions compiled into code, at any depth."""
    names = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                names.add(const.co_qualname)
            names |= _functions(const)
    return names


def defined_functions() -> set[str]:
    """"module.qualname" of every function of the package."""
    return {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _functions(compile(path.read_text(), str(path), "exec"))
    }


def test_every_function_is_entered_or_allowlisted():
    env = {key: value for key, value in os.environ.items() if key != "OCTABOSON_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    census = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reachability_census.py")],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    entered = set(json.loads(census.stdout))
    defined = defined_functions()
    assert set(ALLOWLIST) <= defined, "allowlisted names that no longer exist"
    assert sorted(defined - entered - set(ALLOWLIST)) == [], "functions no run enters"
    assert sorted(entered & set(ALLOWLIST)) == [], "allowlisted functions a run enters"
