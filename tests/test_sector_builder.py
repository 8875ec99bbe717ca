"""A sector's polynomials built together against one built at a time.

``sector_polynomials`` straightens the partitions of one seed block in
shared passes, and every polynomial holds one inversion table, that of the
sector's largest part, on which its orbit expansion is solved when read.  Here each partition is also built alone from
the same primitives, on a pass of its own and the table of its own largest
part, as the construction did before the sector builder.
"""

import contextlib
import io
from fractions import Fraction

import pytest

from octaboson import cli, hallittlewood
from octaboson.partitions import enumerate_partitions, multiplicity, weyl_vector
from octaboson.qkernels import default_params, monic_normalizer, quadratic_norm
from test_relation_routes import large_height_params

PROFILES = ("four", "three", "two")


def alone(lam, params, classical=False):
    """(characters, scale, expansion) of lam built by itself."""
    n = len(lam)
    seed = hallittlewood._seed_block(n, 0 if classical else multiplicity(lam, 0), params)
    exponents, coefficients, denominator = seed
    shift = [p + r for p, r in zip(lam, weyl_vector(n))]
    characters = hallittlewood._straighten(exponents, coefficients, [shift])[0]
    scale = quadratic_norm(lam, params) if classical else 1 / monic_normalizer(lam, params)
    factor = (-1) ** (n * n) * scale / denominator
    table = hallittlewood._inversion_entries(n, max(lam, default=0))
    totals = hallittlewood._orbit_coefficients(characters, table)
    return characters, factor, {nu: factor * d for nu, d in totals.items()}


@pytest.mark.parametrize("height", ["default", "2^61"])
@pytest.mark.parametrize("profile", PROFILES)
def test_sector_equals_each_partition_built_alone(profile, height, fresh_construction):
    params = default_params(profile) if height == "default" else large_height_params(profile)
    for n in range(4):
        lams = enumerate_partitions(n, 3 if n < 3 else 2)
        routes = [False] + [True] * (profile == "two")
        for classical in routes:
            built = hallittlewood.sector_polynomials(lams, params, classical=classical)
            assert list(built) == lams
            for lam, hl in built.items():
                characters, scale, expansion = alone(lam, params, classical)
                assert hl.characters == characters, lam
                assert hl.scale == scale and type(hl.scale) is Fraction, lam
                assert hl.expansion == expansion, lam
                # the keys keep their order too, which the Gram's float sums read
                assert list(hl.expansion) == list(expansion), lam


def test_one_partition_is_hl_polynomial(params4, fresh_construction):
    for lam in enumerate_partitions(3, 2):
        built = hallittlewood.sector_polynomials([lam], params4)[lam]
        assert built == hallittlewood.hl_polynomial(lam, params4)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "orthogonality", "--n", "3", "--maxPart", "2"],
        ["verify", "norms", "--n", "2", "--maxPart", "3", "--M", "64"],
        ["verify", "pieri", "--n", "3", "--maxPart", "2"],
        ["verify", "eigen", "--n", "2", "--maxPart", "3"],
        ["poly", "--n", "3", "--lambda", "2,1,0", "--profile", "two", "--compare-macdonald"],
    ],
)
def test_a_run_builds_one_inversion_table(argv, fresh_construction):
    # partitions with largest parts 0 to maxPart (+ 1 for the neighbours)
    # read the one table of the largest
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    assert hallittlewood._inversion_entries.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv, solves",
    [
        # a passing recurrence reads the characters alone, of 30 states
        # and neighbours built
        (["verify", "pieri", "--n", "3", "--maxPart", "3"], 0),
        (["poly", "--n", "3", "--lambda", "2,1,0", "--profile", "two", "--compare-macdonald"], 2),
    ],
    ids=["pieri", "poly"],
)
def test_expansions_are_solved_when_read(argv, solves, monkeypatch, fresh_construction):
    calls = []
    solve = hallittlewood._orbit_coefficients

    def counting(coeffs, table):
        calls.append(coeffs)
        return solve(coeffs, table)

    monkeypatch.setattr(hallittlewood, "_orbit_coefficients", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == solves


def test_expansion_does_not_depend_on_the_order_of_reads(params4, fresh_construction):
    lams = enumerate_partitions(3, 3)
    first, second, alone = (hallittlewood.sector_polynomials(lams, params4) for _ in range(3))
    for lam in lams:
        before = first[lam].expansion
        orbit = first[lam].orbit
        assert second[lam].orbit == orbit
        after = second[lam].expansion
        assert before == after == alone[lam].expansion, lam
        assert list(before) == list(after) == list(alone[lam].expansion), lam
        assert before == {nu: first[lam].scale * d for nu, d in orbit.items()}, lam


def test_a_pass_holds_at_most_the_block_entries(monkeypatch, params4, fresh_construction):
    # entries are exponent rows x n per shift; a pass larger than the bound
    # holds one partition, whose block alone is larger
    passes = []
    straighten = hallittlewood._straighten

    def recording(exponents, coefficients, shifts):
        passes.append((len(shifts), exponents.size * len(shifts)))
        return straighten(exponents, coefficients, shifts)

    monkeypatch.setattr(hallittlewood, "_straighten", recording)
    for n, max_part in ((1, 6), (2, 4), (3, 3), (4, 2)):
        lams = enumerate_partitions(n, max_part)
        hallittlewood.sector_polynomials(lams, params4)
    assert sum(count for count, _ in passes) == sum(
        len(enumerate_partitions(n, m)) for n, m in ((1, 6), (2, 4), (3, 3), (4, 2))
    )
    bound = hallittlewood._BLOCK_ENTRIES
    assert all(entries <= bound or count == 1 for count, entries in passes)
    # blocks at n <= 3 share passes; at n = 4 a block of about 2,000 to
    # 11,000 rows fills one pass with at most four partitions
    assert max(count for count, _ in passes) > 4
    assert any(count == 1 and entries > bound for count, entries in passes)


def test_passes_of_one_partition_give_the_same_polynomials(monkeypatch, params4, fresh_construction):
    lams = enumerate_partitions(3, 3)
    shared = hallittlewood.sector_polynomials(lams, params4)
    monkeypatch.setattr(hallittlewood, "_BLOCK_ENTRIES", 1)
    assert hallittlewood.sector_polynomials(lams, params4) == shared
