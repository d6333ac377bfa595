"""Tests for cover-free families, the doubling transform, and thresholds."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sephash
from sephash.coverfree import (
    QUADRATIC_COEFF,
    cff_derived,
    cff_is_shf_check,
    cover_free_threshold_lower,
    frameproof_threshold_bounds,
    is_cff,
    shf_to_cff_double,
)
from sephash.matrix import CertificationError, Matrix, write_matrix
from sephash.search import identity_construction, reed_solomon_frameproof
from sephash.verification import PreconditionError, find_violation

from helpers import naive_first_cover, random_matrix, reference_quadratic_piece


def identity(n):
    return Matrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), 2)


def augmented_identity(rng, n, extra_rows):
    """Identity plus random rows: still cover-free for every w <= n-1."""
    rows = list(identity(n).entries)
    for _ in range(extra_rows):
        rows.append(tuple(rng.randrange(2) for _ in range(n)))
    rng.shuffle(rows)
    return Matrix(tuple(rows), 2)


class TestIsCff:
    def test_identity_private_rows(self):
        m = identity(5)
        for w in range(1, 5):
            assert is_cff(m, w) is None

    def test_all_zero_column_caught(self):
        m = Matrix(((0, 1), (0, 0)), 2)
        assert is_cff(m, 1) == (0, (1,))

    def test_containment_caught(self):
        m = Matrix(((1, 1), (0, 1)), 2)
        assert is_cff(m, 1) == (0, (1,))

    def test_vacuous_when_few_members(self):
        m = Matrix(((0, 0), (0, 0)), 2)
        assert is_cff(m, 2) is None

    def test_lexicographically_first(self):
        # Columns 1 and 2 are both covered by column 0; member 1 is reported.
        m = Matrix(((1, 1, 0), (1, 0, 1)), 2)
        assert is_cff(m, 1) == (1, (0,))

    def test_rejects_nonbinary(self):
        with pytest.raises(PreconditionError):
            is_cff(Matrix(((0, 2),), 3), 1)

    def test_witness_matches_brute_force(self):
        rng = random.Random(23)
        found = 0
        for _ in range(400):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(0, 10), 2)
            w = rng.randint(1, 4)
            got = is_cff(m, w)
            assert got == naive_first_cover(m, w)
            found += got is not None
        assert 0 < found < 400


class TestDerived:
    def test_identity_shrinks(self):
        out = cff_derived(identity(3), 0, 2)
        assert out == identity(2)
        assert is_cff(out, 1) is None

    def test_zero_weight_member(self):
        # A member with no elements only exists at w = 0 coverage... a zero
        # column is never cover-free, so use a weight-one member instead and
        # check row loss equals member weight.
        m = identity(4)
        out = cff_derived(m, 2, 3)
        assert out.rows == 3 and out.cols == 3

    def test_doubled_matrix_derives(self):
        doubled = shf_to_cff_double(identity_construction(3, 2), 2)
        out = cff_derived(doubled, 1, 2)
        assert is_cff(out, 1) is None

    def test_precondition_checked(self):
        # First member is the union of the other two.
        bad = Matrix(((1, 1, 0), (1, 0, 1)), 2)
        assert is_cff(bad, 2) == (0, (1, 2))
        with pytest.raises(PreconditionError):
            cff_derived(bad, 0, 2)

    @pytest.mark.parametrize("member", [3, 5, -1])
    def test_member_out_of_range_is_a_precondition_error(self, member):
        with pytest.raises(PreconditionError, match=f"column {member} out of range"):
            cff_derived(identity(3), member, 2)


class TestShfCrossChecks:
    def test_identity_forward(self):
        assert cff_is_shf_check(identity(4), 3)
        assert cff_is_shf_check(identity(5), 2)

    def test_random_verified_cffs_forward(self):
        rng = random.Random(13)
        checked = 0
        while checked < 25:
            n = rng.randint(3, 6)
            m = random_matrix(rng, rng.randint(3, 6), n, 2)
            if is_cff(m, 2) is None and m.cols > 2:
                assert cff_is_shf_check(m, 2)
                checked += 1

    def test_doubling_smallest(self):
        m = Matrix(((0, 1),), 2)
        doubled = shf_to_cff_double(m, 1)
        assert doubled.entries == ((1, 0), (0, 1))

    def test_doubling_identity(self):
        doubled = shf_to_cff_double(identity_construction(3, 2), 2)
        assert (doubled.rows, doubled.cols) == (6, 3)
        weights = [sum(doubled.entries[i][j] for i in range(6)) for j in range(3)]
        assert weights == [3, 3, 3]
        assert is_cff(doubled, 2) is None

    def test_doubling_single_row(self):
        m = Matrix(((0, 1),), 2)
        out = shf_to_cff_double(m, 1)
        assert out.cols == 2 and out.rows == 2

    def test_doubling_rejects_non_separating(self):
        dup = Matrix(((0, 0), (1, 1)), 2)
        with pytest.raises(PreconditionError):
            shf_to_cff_double(dup, 1)

    def test_doubling_lemma_names_the_same_witness(self):
        """m is {1,w}-separating iff its doubled image is w-cover-free, and a
        find_violation witness ((a,), B) is the image's is_cff witness (a, B).

        binary_image of a binary matrix is its doubled image, built here
        without shf_to_cff_double, which refuses inputs that fail.
        """
        rng = random.Random(34)
        failing = 0
        for density in (0.2, 0.5, 0.8):
            for _ in range(200):
                n_rows, n_cols, w = rng.randint(1, 8), rng.randint(1, 12), rng.randint(1, 4)
                rows = tuple(tuple(int(rng.random() < density) for _ in range(n_cols)) for _ in range(n_rows))
                m = Matrix(rows, 2)
                witness = find_violation(m, [1, w])
                expected = None if witness is None else (witness.parts[0][0], witness.parts[1])
                assert is_cff(binary_image(m), w) == expected, (rows, w)
                failing += witness is not None
        # Both outcomes are well represented.
        assert 200 < failing < 550, failing

    def test_backward_on_random_verified(self):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            m = random_matrix(rng, rng.randint(2, 5), rng.randint(2, 5), 2)
            if find_violation(m, [1, 2]) is None and m.cols >= 3:
                assert is_cff(shf_to_cff_double(m, 2), 2) is None
                checked += 1


class TestThresholds:
    def test_quadratic_coefficient(self):
        assert math.isclose(QUADRATIC_COEFF, (15 + math.sqrt(33)) / 24)

    def test_lower_values(self):
        assert math.isclose(cover_free_threshold_lower(1), QUADRATIC_COEFF)
        assert math.isclose(cover_free_threshold_lower(10), QUADRATIC_COEFF * 100)

    def test_lower_saturates_past_double_range(self):
        # The value exceeds every double at both w; the largest double is
        # still a lower bound, and a finite value near the edge is unchanged.
        assert cover_free_threshold_lower(10**160) == sys.float_info.max
        assert cover_free_threshold_lower(10**400) == sys.float_info.max
        assert cover_free_threshold_lower(10**154) == QUADRATIC_COEFF * 10**154 * 10**154

    def test_lower_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cover_free_threshold_lower(0)

    def test_w12(self):
        b = frameproof_threshold_bounds(12)
        assert b.lower == 87
        assert b.pieces == {"quadratic": 87, "pair-count": 79, "linear": 36}

    def test_w3(self):
        b = frameproof_threshold_bounds(3)
        assert b.lower == 9
        assert b.pieces == {"quadratic": 1, "pair-count": 7, "linear": 9}

    def test_w4(self):
        assert frameproof_threshold_bounds(4).lower == 12

    def test_sandwich_and_json(self):
        b = frameproof_threshold_bounds(5)
        assert b.sandwich == ("N*(w-2)", "N*(w)")
        d = b.as_json_dict()
        assert d["w"] == 5 and d["lower"] == b.lower

    def test_rejects_small_w(self):
        with pytest.raises(ValueError):
            frameproof_threshold_bounds(2)

    def test_quadratic_piece_matches_decimal_reference_up_to_10_000(self):
        for w in range(3, 10_001):
            got = frameproof_threshold_bounds(w).pieces["quadratic"]
            assert got == reference_quadratic_piece(w), w

    # At w = 287,382, the least w where double rounding put the floor one
    # high, c*(w-2)**2 = 71,384,861,672.9999966...; the rest run up to
    # 3*10**40, far past where a double holds c*(w-2)**2 to the unit.
    LARGE_W = [("287382", 287_382)] + [
        (label % k, w)
        for k in range(1, 41)
        for label, w in (("10^%d", 10**k), ("10^%d+7", 10**k + 7), ("3*10^%d+1", 3 * 10**k + 1))
    ]

    @pytest.mark.parametrize("w", [w for _, w in LARGE_W], ids=[label for label, _ in LARGE_W])
    def test_quadratic_piece_is_exact_at_large_w(self, w):
        b = frameproof_threshold_bounds(w)
        assert b.pieces["quadratic"] == reference_quadratic_piece(w)
        assert b.lower == max(b.pieces.values())


class TestLemmaProperties:
    def test_augmented_identities_forward(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(3, 6)
            w = rng.randint(1, n - 1)
            m = augmented_identity(rng, n, rng.randint(0, 3))
            assert is_cff(m, w) is None
            assert cff_is_shf_check(m, w)

    def test_derived_chain(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(4, 6)
            m = augmented_identity(rng, n, 2)
            out = cff_derived(m, rng.randrange(n), 3)
            assert is_cff(out, 2) is None


class TestCertification:
    """Self-checks raise CertificationError, which python -O cannot strip."""

    def test_rejected_double_raises(self, monkeypatch):
        monkeypatch.setattr("sephash.coverfree.is_cff", lambda m, w: (0, (1,)))
        with pytest.raises(CertificationError):
            shf_to_cff_double(identity_construction(3, 2), 2)

    def test_rejected_double_raises_under_optimize(self):
        script = (
            "import sys\n"
            "import sephash.coverfree as c\n"
            "from sephash.matrix import CertificationError\n"
            "from sephash.search import identity_construction\n"
            "m = identity_construction(3, 2)\n"
            "c.is_cff = lambda m, w: (0, (1,))\n"
            "try:\n"
            "    c.shf_to_cff_double(m, 2)\n"
            "except CertificationError:\n"
            "    sys.exit(0 if sys.flags.optimize else 3)\n"
            "sys.exit(1)\n"
        )
        src = str(Path(sephash.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
        assert done.returncode == 0


def binary_image(m):
    """Symbol s of a q-ary row becomes the unit vector e_s: {1,w}-separation carries over."""
    rows = tuple(tuple(1 if e == s else 0 for e in row) for row in m.entries for s in range(m.q))
    return Matrix(rows, 2)


def _cover_free_sweep_corpus():
    """Seeded binary matrices for the cover-free byte sweep.

    Random matrices up to 20 x 24 at densities 0.2, 0.5 and 0.8, the
    doubled binary images of RS(5,3,2), RS(5,4,3) and RS(7,3,2) (w-cover-
    free at their code's w, covered above it), and copies of each image
    where one late member is replaced by the union of 1-4 others.
    """
    rng = random.Random(32)
    cases = []
    for density in (0.2, 0.5, 0.8):
        for _ in range(60):
            n_rows, n_cols = rng.randint(1, 20), rng.randint(0, 24)
            rows = tuple(tuple(int(rng.random() < density) for _ in range(n_cols)) for _ in range(n_rows))
            cases.append(Matrix(rows, 2))
    for args in ((5, 3, 2), (5, 4, 3), (7, 3, 2)):
        doubled = shf_to_cff_double(binary_image(reed_solomon_frameproof(*args)), args[2])
        cases.append(doubled)
        for size in range(1, 5):
            cols = doubled.columns()
            target = rng.randrange(doubled.cols // 2, doubled.cols)
            union = rng.sample([j for j in range(doubled.cols) if j != target], size)
            cols[target] = tuple(max(cols[j][r] for j in union) for r in range(doubled.rows))
            cases.append(Matrix(tuple(zip(*cols)), 2))
    return cases


@pytest.mark.slow
def test_cover_free_sweep_is_byte_identical():
    """Every cover-free output on a seeded corpus, as recorded before is_cff
    branched on the least-held uncovered element.

    Per matrix, one JSON line (keys sorted), hashed in order: is_cff for
    w = 1..4, shf_to_cff_double's output text or message for w = 1..4 and
    cff_derived's for w = 2..4 on one seeded member.
    """

    def text_or_message(call, *args):
        try:
            return write_matrix(call(*args))
        except PreconditionError as err:
            return str(err)

    rng = random.Random(33)
    digest = hashlib.sha256()
    for m in _cover_free_sweep_corpus():
        member = rng.randrange(max(m.cols, 1))
        d = {
            "cff": [is_cff(m, w) for w in range(1, 5)],
            "double": [text_or_message(shf_to_cff_double, m, w) for w in range(1, 5)],
            "derived": [text_or_message(cff_derived, m, member, w) for w in range(2, 5)],
        }
        digest.update((json.dumps(d, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == "c3b0320166a9f233de262023a3068f9e82463c9ac1d594da52ba7803efaa7eeb"
