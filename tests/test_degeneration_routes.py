"""``verify degeneration`` on steps against the route through functions.

The suite compares, state by state, the runtime's steps at its reduced
points with the reduced steps, and builds no function and no step table.
Here every runtime step, as a basis image, must equal the single value of
``create`` and ``annihilate`` of the delta function, and every reduced
step that of the oracles ``reduced_create`` and ``reduced_annihilate``, so
the suite still certifies the public operators and oracles; and the suite
must evaluate each step once per reduced point, state and site: as many
steps of each kind as the applications it states; and each reduced closed
form once per reduced point and occupation numbers it reads.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

from octaboson import cli, qboson
from octaboson.partitions import add_part, enumerate_partitions, raise_indices, sector_size
from octaboson.qboson import (
    LatticeFunction,
    annihilate,
    create,
)
from octaboson.qkernels import PROFILES, default_params, hop_up_three, hop_up_two
import lattice_oracle
from lattice_oracle import reduced_annihilate, reduced_create
from test_relation_routes import function_image, large_height_params

#: states of sectors 0..3 with parts <= 3, and their sites 0..4
STATES = [mu for n in range(4) for mu in enumerate_partitions(n, 3)]
SITES = range(5)

HOP_UP = {"three": hop_up_three, "two": hop_up_two}


def valued_step(step):
    """A step (target, coefficient) as (target, value), or None for zero; a
    coefficient None stands for 1."""
    if step is None or step[1] == 0:
        return None
    return step[0], Fraction(1) if step[1] is None else step[1]


def points(profile):
    return default_params(profile), large_height_params(profile)


@pytest.mark.parametrize("profile", PROFILES)
def test_step_tables_match_the_operators(profile):
    for params in points(profile):
        # the runtime steps ``verify degeneration`` compares, in tables as
        # ``_BasisOps`` makes them: each entry is the basis image that a
        # failing comparison renders
        creation = {
            l: qboson._StepTable(lambda mu, l=l: qboson._create_step(l, mu, params)) for l in SITES
        }
        annihilation = {
            l: qboson._StepTable(lambda mu, l=l: qboson._annihilate_step(l, mu, params)) for l in SITES
        }
        for mu in STATES:
            f = LatticeFunction.delta(mu)
            for l in SITES:
                created = qboson._valued_image(creation[l][mu])
                assert created == function_image(create(l, f, params)), (l, mu, params)
                removed = qboson._valued_image(annihilation[l][mu])
                assert removed == function_image(annihilate(l, f, params)), (l, mu, params)


@pytest.mark.parametrize("profile", HOP_UP)
def test_reduced_steps_match_the_reduced_oracles(profile):
    hop_up = HOP_UP[profile]
    for params in points(profile):
        for mu in STATES:
            f = LatticeFunction.delta(mu)
            for l in SITES:
                step = qboson._reduced_create_step(l, mu, params, hop_up)
                expected = function_image(reduced_create(l, f, params, hop_up))
                assert valued_step(step) == expected, (l, mu, params)
                step = qboson._reduced_annihilate_step(l, mu)
                expected = function_image(reduced_annihilate(l, f))
                assert valued_step(step) == expected, (l, mu)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def count_calls(monkeypatch, owner, names, calls: Counter) -> None:
    """Count in ``calls`` each call of the functions ``names`` of a module
    or class."""
    for name in names:
        function = getattr(owner, name)

        def counted(*args, _name=name, _function=function):
            calls[_name] += 1
            return _function(*args)

        monkeypatch.setattr(owner, name, staticmethod(counted) if isinstance(owner, type) else counted)


def test_degeneration_builds_no_function(capsys, monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, LatticeFunction, ["delta"], calls)
    count_calls(monkeypatch, qboson, ["create", "annihilate"], calls)
    count_calls(monkeypatch, lattice_oracle, ["reduced_create", "reduced_annihilate"], calls)
    for profile in PROFILES:
        argv = ("verify", "degeneration", "--n", "3", "--maxPart", "3", "--profile", profile)
        code, payload = run(capsys, *argv)
        assert code == 0 and payload["pass"], profile
    assert calls == Counter()


def test_degeneration_builds_no_step_table(capsys, monkeypatch):
    tables = Counter()
    init = qboson._StepTable.__init__

    def counted(self, fill):
        tables["_StepTable"] += 1
        init(self, fill)

    monkeypatch.setattr(qboson._StepTable, "__init__", counted)
    for profile in PROFILES:
        argv = ("verify", "degeneration", "--n", "3", "--maxPart", "3", "--profile", profile)
        code, payload = run(capsys, *argv)
        assert code == 0 and payload["pass"], profile
    assert tables == Counter()
    # the relation checks still read step tables, and the count sees them
    code, _ = run(capsys, "verify", "algebra", "--n", "1", "--maxPart", "1")
    assert code == 0 and tables["_StepTable"] > 0


def test_degeneration_steps_are_its_stated_applications(capsys, monkeypatch, cold_caches):
    n, max_part = 3, 3
    states = sum(sector_size(sector, max_part) for sector in range(n + 1))
    applications = states * (max_part + 2)
    steps = Counter()
    kinds = ["_create_step", "_annihilate_step", "_reduced_create_step", "_reduced_annihilate_step"]
    count_calls(monkeypatch, qboson, kinds, steps)
    # each closed form by its arguments; a form of the three or two profile
    # is read at the t4 -> 0 or the t3,t4 -> 0 point alone
    evaluations = Counter()
    forms = ["norm", "hop_up", "potential"]
    for name in [f"{form}_{profile}" for form in forms for profile in ("three", "two")]:
        function = getattr(qboson, name)

        def counted(*args, _name=name, _function=function):
            evaluations[(_name, *args[:-2])] += 1
            return _function(*args)

        monkeypatch.setattr(qboson, name, counted)
    code, payload = run(capsys, "verify", "degeneration", "--n", str(n), "--maxPart", str(max_part))
    assert code == 0
    # one step of each kind per reduced point, state and site: the stated
    # applications bound each kind, and the four kinds take four times them
    checks = len(payload["checks"])
    assert checks == 2
    assert steps == Counter({name: checks * applications for name in kinds})
    # each closed form once per reduced point and the occupation numbers it
    # reads: the norm m0 and the sorted multiplicities of a state, the rate
    # the multiplicity of the hopping or created part and whether it is 0,
    # the potential (m0, m1)
    lams = [lam for sector in range(n + 1) for lam in enumerate_partitions(sector, max_part)]
    norms = {(lam.count(0), tuple(sorted(Counter(lam).values()))) for lam in lams}
    rates = {(lam.count(lam[j]), lam[j] == 0) for lam in lams for j in raise_indices(lam)}
    rates |= {(add_part(mu, l).count(l), l == 0) for mu in lams for l in range(max_part + 2)}
    potentials = {(m0, m1) for m0 in range(n + 1) for m1 in range(n + 1 - m0)}
    numbers = {"norm": norms, "hop_up": rates, "potential": potentials}
    expected = {(f"{form}_{profile}", *key) for form in forms for key in numbers[form]
                for profile in ("three", "two")}
    assert evaluations == Counter(expected)
