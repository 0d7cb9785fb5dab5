"""Permutation arithmetic, the Hamming metric, and the byte encoding."""

import copy
import hashlib
import pickle
import random
import re

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdzkp.perm import (
    MAX_TUPLE_LENGTH,
    Permutation,
    compose,
    compose_images,
    hamming,
    identity,
    inverse,
    random_perm,
    random_support_perm,
)


def test_compose_applies_right_factor_first():
    a = Permutation((1, 0, 2))
    b = Permutation((2, 1, 0))
    # (a∘b)(i) = a(b(i)): hand-evaluated
    assert compose(a, b).images == (2, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 128, 300])
def test_compose_images_matches_the_per_point_formula(n):
    rng = random.Random(n)
    for _ in range(20):
        a, b = random_perm(n, rng).images, random_perm(n, rng).images
        composed = compose_images(a, b)
        assert type(composed) is tuple
        assert composed == tuple(a[b[i]] for i in range(n))


def test_compose_identity_neutral():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(1, 20)
        p = random_perm(n, rng)
        e = identity(n)
        assert compose(p, e) == p
        assert compose(e, p) == p


def test_inverse_hand_value():
    assert inverse(Permutation((1, 2, 0))).images == (2, 0, 1)


def test_inverse_law():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randrange(1, 40)
        p = random_perm(n, rng)
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)
        assert inverse(inverse(p)) == p


def test_associativity():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 30)
        a, b, c = (random_perm(n, rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_unvalidated_results_pass_full_validation():
    # compose and inverse skip revalidation of their products; the validating
    # constructor is the reference they must agree with.
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randrange(1, 40)
        a, b = random_perm(n, rng), random_perm(n, rng)
        for p in (compose(a, b), inverse(a)):
            assert type(p.images) is tuple
            assert Permutation(p.images) == p
            assert hash(Permutation(p.images)) == hash(p)


def test_permutation_is_an_immutable_value():
    p = Permutation([1, 0, 2])
    assert p == Permutation((1, 0, 2)) and p != Permutation((0, 1, 2)) and p != (1, 0, 2)
    assert {p: "p"}[Permutation((1, 0, 2))] == "p"
    assert repr(p) == "Permutation(images=(1, 0, 2))"
    with pytest.raises(AttributeError):
        p.images = (0, 1, 2)
    with pytest.raises(AttributeError):
        del p.images
    assert p.images == (1, 0, 2)


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_permutation_copies_and_pickles(round_trip):
    p = Permutation((2, 0, 3, 1))
    q = round_trip(p)
    assert q == p and type(q.images) is tuple and hash(q) == hash(p)
    with pytest.raises(AttributeError, match="immutable"):
        q.images = (0, 1, 2, 3)
    assert p.images == q.images == (2, 0, 3, 1)


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3, 1))
    with pytest.raises(ValueError):
        Permutation(())


def element_wise_check(images):
    """The constructor's element-wise loop, as the reference for its C-level
    accept path: None where the loop accepts, else the message it raises."""
    n = len(images)
    if n == 0:
        return "permutation degree must be at least 1"
    seen = bytearray(n)
    for v in images:
        if not isinstance(v, int) or not 0 <= v < n:
            return f"image {v!r} out of range for degree {n}"
        if seen[v]:
            return f"image {v} repeated; not a bijection"
        seen[v] = 1
    return None


class Index(int):
    """An int subclass: the loop accepts it, the accept path leaves it to the loop."""


@st.composite
def image_tuples(draw):
    """A permutation of 0..n-1, n in 1..300, with up to four entries replaced
    by an int subclass, a bool, a float, a negative, an out-of-range int or a
    repeat."""
    n = draw(st.integers(1, 300))
    images = list(draw(st.permutations(range(n))))
    for _ in range(draw(st.integers(0, 4))):
        images[draw(st.integers(0, n - 1))] = draw(st.one_of(
            st.integers(0, n - 1).map(Index),
            st.booleans(),
            st.floats(allow_nan=True),
            st.integers(-3, -1),
            st.integers(n, n + 3),
            st.sampled_from(images),
        ))
    return tuple(images)


@settings(max_examples=400, deadline=None)
@given(image_tuples())
def test_constructor_accepts_exactly_what_the_loop_accepts(images):
    expected = element_wise_check(images)
    if expected is None:
        assert Permutation(images).images == images
        assert Permutation(list(images)).images == images
    else:
        with pytest.raises(ValueError) as refused:
            Permutation(images)
        assert str(refused.value) == expected


@pytest.mark.parametrize("images", [(), (True,), (False,), (True, False), (1, True), (0, 1.0), (0, Index(1))])
def test_constructor_edge_cases_match_the_loop(images):
    expected = element_wise_check(images)
    if expected is None:
        assert Permutation(images).images == images
    else:
        with pytest.raises(ValueError, match=re.escape(expected)):
            Permutation(images)


def test_degree_mismatch_raises():
    a = Permutation((0, 1))
    b = Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        compose(a, b)
    with pytest.raises(ValueError):
        hamming(a, b)


def test_hamming_basics():
    a = Permutation((0, 1, 2, 3))
    assert hamming(a, a) == 0
    assert hamming(a, Permutation((1, 0, 2, 3))) == 2
    assert hamming(a, Permutation((1, 2, 3, 0))) == 4


def test_hamming_never_one():
    rng = random.Random(4)
    for _ in range(2000):
        n = rng.randrange(2, 16)
        assert hamming(random_perm(n, rng), random_perm(n, rng)) != 1


def test_hamming_left_invariant():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randrange(2, 32)
        u, h, g = (random_perm(n, rng) for _ in range(3))
        assert hamming(compose(u, h), compose(u, g)) == hamming(h, g)


def test_hamming_right_invariant():
    rng = random.Random(6)
    for _ in range(500):
        n = rng.randrange(2, 32)
        u, h, g = (random_perm(n, rng) for _ in range(3))
        assert hamming(compose(h, u), compose(g, u)) == hamming(h, g)


def moved(p):
    """How many points p moves."""
    return sum(i != v for i, v in enumerate(p.images))


def test_random_support_perm_moves_exactly_m():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 40)
        m = rng.choice([0] + list(range(2, n + 1)))
        tau = random_support_perm(n, m, rng)
        assert moved(tau) == m


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 64, 256, 257, 300])
def test_random_support_perm_passes_full_validation(n):
    # random_support_perm wraps its images unchecked; the validating
    # constructor is the reference, at every support size the degree allows.
    rng = random.Random(n)
    for m in [0, *range(2, n + 1)]:
        tau = random_support_perm(n, m, rng)
        assert type(tau.images) is tuple
        assert Permutation(tau.images) == tau
        assert moved(tau) == m


def test_random_support_perm_set_branch_is_pinned():
    # 75 of 300 points: rng.sample's set branch, since 300 exceeds the 277
    # points its pool branch takes for 75 picks.  SHA-256 of the draw, as
    # rng.sample and rng.shuffle made it.
    tau = random_support_perm(300, 75, random.Random(300))
    assert moved(tau) == 75
    assert hashlib.sha256(tau.to_bytes()).hexdigest() == (
        "65263aab6c00eed6ace715a3938548840b9d68134d92aec9ba15f407a719b61c")


def test_random_support_perm_edge_cases():
    rng = random.Random(8)
    assert random_support_perm(5, 0, rng) == identity(5)
    with pytest.raises(ValueError):
        random_support_perm(5, 1, rng)
    with pytest.raises(ValueError):
        random_support_perm(5, 6, rng)
    with pytest.raises(ValueError):
        random_support_perm(5, -2, rng)


def test_random_support_perm_composition_distance():
    # d(tau∘g, g) == |support(tau)| by right-invariance
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(4, 32)
        m = rng.choice([0] + list(range(2, n + 1)))
        g = random_perm(n, rng)
        tau = random_support_perm(n, m, rng)
        assert hamming(compose(tau, g), g) == m


def test_bytes_round_trip():
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randrange(1, 50)
        p = random_perm(n, rng)
        data = p.to_bytes()
        assert len(data) == 4 + 4 * n
        assert Permutation.from_bytes(data) == p
        # the encoding is read wherever it stands, and ends where its images do
        assert Permutation.unpack_from(b"xy" + data + b"z", 2) == (p, len(data) + 2)


def test_bytes_encoding_layout():
    p = Permutation((1, 0, 2))
    assert p.to_bytes() == bytes([3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0])


def test_bytes_rejects_malformed():
    good = Permutation((1, 0, 2)).to_bytes()
    with pytest.raises(ValueError):
        Permutation.from_bytes(good[:-1])
    with pytest.raises(ValueError):
        Permutation.from_bytes(good[:-4])
    with pytest.raises(ValueError):
        Permutation.from_bytes(good + b"\x00")
    with pytest.raises(ValueError):
        Permutation.from_bytes(b"")
    with pytest.raises(ValueError):
        Permutation.from_bytes(good[:3])
    # image out of range
    bad = bytearray(good)
    bad[4] = 9
    with pytest.raises(ValueError):
        Permutation.from_bytes(bytes(bad))
    # degree 0, and a degree no file holds, refused on untrusted input
    with pytest.raises(ValueError, match="unreasonable"):
        Permutation.from_bytes(bytes(4))
    with pytest.raises(ValueError, match="unreasonable"):
        Permutation.from_bytes(b"\xff\xff\xff\xff")


@pytest.mark.parametrize("n", [1, 9, 300])
def test_bytes_encoding_is_the_tuple_codec(n):
    p = random_perm(n, random.Random(n))
    assert p.to_bytes() == struct.pack(f"<I{n}I", n, *p.images)


def test_unpack_refuses_a_degree_past_the_length_cap():
    # a full body behind the degree: only the cap can refuse it
    n = MAX_TUPLE_LENGTH + 1
    data = n.to_bytes(4, "little") + bytes(4 * n)
    with pytest.raises(ValueError, match="unreasonable"):
        Permutation.unpack_from(data)
    # at the cap the degree is taken and its images read; all zero, they
    # are no permutation
    at_cap = MAX_TUPLE_LENGTH.to_bytes(4, "little") + bytes(4 * MAX_TUPLE_LENGTH)
    with pytest.raises(ValueError, match="repeated"):
        Permutation.unpack_from(at_cap)
    # and a permutation of that degree decodes
    assert Permutation.unpack_from(identity(MAX_TUPLE_LENGTH).to_bytes())[0].n == MAX_TUPLE_LENGTH


def test_random_perm_uniform_smoke():
    # all 6 permutations of 3 points should show up at sane frequencies
    rng = random.Random(11)
    counts = {}
    for _ in range(6000):
        p = random_perm(3, rng)
        counts[p.images] = counts.get(p.images, 0) + 1
    assert len(counts) == 6
    assert all(800 < c < 1200 for c in counts.values())

