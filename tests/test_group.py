"""Stabilizer-chain construction checked against brute-force closure."""

import hashlib
import itertools
import math
import random
import struct

import pytest

import sdzkp.group as group

from sdzkp.group import BSGS, _certify_giant, _ChainBuilder, _Level, make_ops, _normalize, build_bsgs, word_width
from sdzkp.instance import plant_instance
from sdzkp.perm import Permutation, compose, compose_images, identity, inverse, invert_images, random_perm
from test_draws import Rejecting, cycle_perm, same_state


def closure(gens):
    """All products of the generators, by breadth-first multiplication."""
    frontier = set(gens)
    seen = set(frontier)
    seen.add(identity(gens[0].n))
    while frontier:
        nxt = set()
        for a in frontier:
            for g in gens:
                w = compose(g, a)
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        frontier = nxt
    return seen


def draw(grp, rng):
    """grp.sample_uniform's raw element, wrapped (and validated) as a Permutation."""
    return Permutation(grp.ops.decode(grp.sample_uniform(rng)))


def test_trivial_group():
    grp = build_bsgs([identity(5)])
    assert grp.order() == 1
    assert grp.contains(identity(5))
    assert not grp.contains(Permutation((1, 0, 2, 3, 4)))


def test_klein_four_group():
    a = Permutation((1, 0, 3, 2))
    b = Permutation((2, 3, 0, 1))
    grp = build_bsgs([a, b])
    assert grp.order() == 4
    elems = set(p.images for p in grp.elements(10))
    assert elems == {
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    }


def test_symmetric_group_five():
    gens = [Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0))]
    grp = build_bsgs(gens)
    assert grp.order() == 120


def test_symmetric_group_six_from_adjacent_swaps():
    gens = []
    for i in range(5):
        images = list(range(6))
        images[i], images[i + 1] = images[i + 1], images[i]
        gens.append(Permutation(tuple(images)))
    assert build_bsgs(gens).order() == 720


def test_cyclic_group():
    c = Permutation((1, 2, 3, 4, 5, 6, 0))
    grp = build_bsgs([c])
    assert grp.order() == 7
    assert grp.contains(compose(c, c))
    assert not grp.contains(Permutation((1, 0, 2, 3, 4, 5, 6)))


def test_matches_closure_on_random_small_groups():
    rng = random.Random(20)
    for _ in range(25):
        n = rng.randrange(3, 8)
        gens = [random_perm(n, rng) for _ in range(rng.randrange(1, 4))]
        if all(g.images == tuple(range(n)) for g in gens):
            continue
        grp = build_bsgs(gens)
        full = closure(gens)
        assert grp.order() == len(full)
        assert set(grp.elements(len(full))) == full
        for _ in range(40):
            probe = random_perm(n, rng)
            assert grp.contains(probe) == (probe in full)


def test_contains_closed_under_operations():
    rng = random.Random(21)
    gens = [random_perm(12, rng) for _ in range(3)]
    grp = build_bsgs(gens)
    for _ in range(50):
        a = draw(grp, rng)
        b = draw(grp, rng)
        assert grp.contains(a)
        assert grp.contains(compose(a, b))
        assert grp.contains(inverse(a))


def test_large_degree_full_symmetric():
    rng = random.Random(22)
    gens = [random_perm(64, rng) for _ in range(4)]
    grp = build_bsgs(gens)
    # 4 random generators of S_64 give the full symmetric or alternating
    # group with overwhelming probability; either way the order is huge
    # and membership must accept arbitrary products of the generators.
    assert grp.order() >= math.factorial(64) // 2
    w = gens[0]
    for g in gens[1:]:
        w = compose(w, g)
    assert grp.contains(w)


def test_elements_limit_enforced():
    gens = [Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0))]
    grp = build_bsgs(gens)
    with pytest.raises(ValueError):
        grp.elements(100)
    assert len(grp.elements(120)) == 120


def test_sample_uniform_covers_group():
    a = Permutation((1, 0, 3, 2))
    b = Permutation((2, 3, 0, 1))
    grp = build_bsgs([a, b])
    rng = random.Random(23)
    counts = {}
    for _ in range(4000):
        p = draw(grp, rng)
        counts[p.images] = counts.get(p.images, 0) + 1
    assert len(counts) == 4
    assert all(850 < c < 1150 for c in counts.values())


def test_sample_uniform_stays_inside_group():
    rng = random.Random(24)
    gens = [random_perm(9, rng) for _ in range(2)]
    grp = build_bsgs(gens)
    full = closure(gens)
    for _ in range(200):
        assert draw(grp, rng) in full


@pytest.mark.parametrize("n", [9, 300])  # byte-table chain, tuple chain
def test_sampled_elements_pass_full_validation(n):
    # sample_uniform skips revalidation of its product of coset
    # representatives; the validating constructor is the reference.
    rng = random.Random(n)
    grp = build_bsgs([random_perm(n, rng) for _ in range(2)])
    for _ in range(50):
        raw = grp.sample_uniform(rng)
        images = grp.ops.decode(raw)
        assert type(images) is tuple
        assert grp.ops.encode(Permutation(images).images) == raw


def test_generator_validation():
    with pytest.raises(ValueError):
        build_bsgs([])
    with pytest.raises(ValueError):
        build_bsgs([Permutation((1, 0)), Permutation((1, 0, 2))])
    with pytest.raises(TypeError):
        build_bsgs([(1, 0)])


def test_base_and_strong_generators_consistent():
    gens = [Permutation((1, 2, 3, 4, 0))]
    grp = build_bsgs(gens)
    assert isinstance(grp, BSGS)
    assert grp.degree == 5
    # every input generator is a member
    for g in grp.generators:
        assert grp.contains(g)
    # base points are pairwise distinct
    assert len(set(grp.base)) == len(grp.base)


# --- giant-group certificate against Schreier-Sims ---

def schreier_sims(gens):
    """The reference chain: plain Schreier-Sims, never the certificate."""
    degree, kept = _normalize(gens)
    ops = make_ops(degree)
    return BSGS(ops, kept, _ChainBuilder(ops).run([ops.encode(g.images) for g in kept]))


def certified(gens):
    degree, kept = _normalize(gens)
    return _certify_giant(make_ops(degree), kept)


def is_odd(p):
    seen, transpositions = set(), 0
    for start in range(p.n):
        x = start
        while x not in seen:
            seen.add(x)
            x = p.images[x]
            transpositions += x != start
    return transpositions % 2 == 1


def even_perm(n, rng):
    p = random_perm(n, rng)
    return compose(cycle_perm(n, (0, 1)), p) if is_odd(p) else p


def assert_same_group(fast, slow, rng, probes=200):
    assert fast.order() == slow.order()
    n = fast.degree
    for _ in range(probes):
        probe = random_perm(n, rng)
        assert fast.contains(probe) == slow.contains(probe)
    for _ in range(probes):
        assert slow.contains(fast.sample_uniform(rng))
        assert fast.contains(slow.sample_uniform(rng))


@pytest.mark.parametrize("n", [8, 12, 32, 64, 128])
def test_certified_symmetric_matches_schreier_sims(n):
    rng = random.Random(300 + n)
    gens = [random_perm(n, rng) for _ in range(3)]
    if not any(is_odd(g) for g in gens):
        gens[0] = compose(cycle_perm(n, (0, 1)), gens[0])
    assert certified(gens)
    fast = build_bsgs(gens)
    assert fast.order() == math.factorial(n)
    assert fast.base == tuple(range(n - 1))
    assert_same_group(fast, schreier_sims(gens), rng)


@pytest.mark.parametrize("n", [8, 12, 32, 64])
def test_certified_alternating_matches_schreier_sims(n):
    rng = random.Random(400 + n)
    gens = [even_perm(n, rng) for _ in range(3)]
    assert certified(gens)
    fast = build_bsgs(gens)
    assert fast.order() == math.factorial(n) // 2
    assert fast.base == tuple(range(n - 2))
    assert_same_group(fast, schreier_sims(gens), rng)
    # odd permutations are exactly the non-members
    assert not fast.contains(cycle_perm(n, (0, 1)))
    assert fast.contains(cycle_perm(n, (0, 1, 2)))


def test_certified_chain_enumerates_the_same_elements():
    n = 8
    symmetric = [cycle_perm(n, (0, 1)), cycle_perm(n, tuple(range(n)))]
    alternating = [cycle_perm(n, (0, 1, 2)), cycle_perm(n, tuple(range(1, n)))]
    for gens in (symmetric, alternating):
        assert certified(gens)
        fast, slow = build_bsgs(gens), schreier_sims(gens)
        assert set(fast.elements(fast.order())) == set(slow.elements(slow.order()))


def _non_giant_sets():
    rng = random.Random(600)
    n = 16
    abelian = plant_instance(n, 5, 4, rng, preset="abelian2")[0].generators
    single_cycle = [cycle_perm(n, tuple(range(n)))]
    single_random = [random_perm(n, rng)]
    half = n // 2
    left = [cycle_perm(n, (0, 1)), cycle_perm(n, tuple(range(half)))]
    right = [cycle_perm(n, (half, half + 1)), cycle_perm(n, tuple(range(half, n)))]
    intransitive = left + right
    # S_4 wr S_4: blocks {4b, .., 4b+3}, permuted among themselves and within
    blocks = [
        cycle_perm(n, (0, 1)),
        cycle_perm(n, (0, 1, 2, 3)),
        cycle_perm(n, (0, 4), (1, 5), (2, 6), (3, 7)),
        cycle_perm(n, *[tuple(range(i, n, 4)) for i in range(4)]),
    ]
    # S_2 wr S_8 on pairs {2b, 2b+1}
    pairs = [
        cycle_perm(n, (0, 1)),
        cycle_perm(n, (0, 2), (1, 3)),
        cycle_perm(n, tuple(range(0, n, 2)), tuple(range(1, n, 2))),
    ]
    # AGL(1, 13): primitive, holds 13-cycles, but 13 is not below n - 2
    affine = [Permutation(tuple((x + 1) % 13 for x in range(13))),
              Permutation(tuple((2 * x) % 13 for x in range(13)))]
    return {
        "abelian2": abelian,
        "single-cycle": single_cycle,
        "single-random": single_random,
        "intransitive": intransitive,
        "imprimitive-S4wrS4": blocks,
        "imprimitive-S2wrS8": pairs,
        "primitive-AGL(1,13)": affine,
    }


@pytest.mark.parametrize("name", sorted(_non_giant_sets()))
def test_non_giant_sets_are_never_certified(name):
    gens = _non_giant_sets()[name]
    n = gens[0].n
    assert not certified(gens)
    fast, slow = build_bsgs(gens), schreier_sims(gens)
    assert 2 * slow.order() < math.factorial(n)
    assert_same_group(fast, slow, random.Random(700))
    assert fast.base == slow.base


def test_build_is_deterministic_for_identical_generators():
    rng = random.Random(800)
    for gens in ([random_perm(40, rng) for _ in range(2)], [even_perm(40, rng) for _ in range(2)]):
        a, b = build_bsgs(gens), build_bsgs(list(gens))
        assert a.base == b.base and a.order() == b.order()
        ra, rb = random.Random(801), random.Random(801)
        assert [a.sample_uniform(ra) for _ in range(20)] == [b.sample_uniform(rb) for _ in range(20)]


def test_small_degrees_skip_the_certificate():
    gens = [cycle_perm(7, (0, 1)), cycle_perm(7, tuple(range(7)))]
    assert not certified(gens)
    assert build_bsgs(gens).order() == math.factorial(7)


def test_jordan_primes_match_trial_division():
    for n in range(600):
        expected = {p for p in range(n // 2 + 1, n - 2) if all(p % d for d in range(2, math.isqrt(p) + 1))}
        assert group._jordan_primes(n) == expected, n


def parity_probes(n, rng):
    """The identity, a transposition, an n-cycle, a product of a 2-cycle and
    a 3-cycle, and random permutations of degree n."""
    probes = [identity(n), cycle_perm(n, (0, n - 1)), cycle_perm(n, tuple(range(n)))]
    if n >= 5:
        probes.append(cycle_perm(n, (0, 1), (2, 3, 4)))
    return probes + [random_perm(n, rng) for _ in range(40)]


@pytest.mark.parametrize("n", [9, 128, 256, 260, 300])
def test_parity_walk_matches_the_cycle_count(n):
    rng = random.Random(n)
    ops = make_ops(n)
    for p in parity_probes(n, rng):
        expected = (n - len(group._cycle_lengths(p.images, n))) % 2 == 1
        assert expected == is_odd(p)
        assert group._is_odd(p.images, n) == expected
        assert group._is_odd(ops.encode(p.images), n) == expected  # a byte table up to n = 256


@pytest.mark.parametrize("n", [1, 2, 6, 9, 128, 255, 256, 260])
def test_raw_inverse_and_then_match_the_image_tuple_forms(n):
    """ops.inv (bytes.maketrans for tables) against invert_images, and
    ops.then(q, a) against a∘q; every permutation of degree up to 6."""
    rng = random.Random(n)
    ops = make_ops(n)
    probes = map(Permutation, itertools.permutations(range(n))) if n <= 6 else parity_probes(n, rng)
    for p in probes:
        a, q = ops.encode(p.images), ops.encode(random_perm(n, rng).images)
        assert ops.inv(a) == ops.encode(invert_images(p.images))
        assert ops.then(a, ops.inv(a)) == ops.then(ops.inv(a), a) == ops.ident
        assert ops.then(q, a) == ops.encode(compose_images(p.images, ops.decode(q)))


def plain_words(images, w):
    """images as w-byte little-endian words, the form a round masks."""
    return b"".join(image.to_bytes(w, "little") for image in images)


@pytest.mark.parametrize("n", [1, 2, 8, 255, 256, 257, 300])
def test_word_codec_matches_the_plain_definition(n):
    """ops.words(ops.encode(x)) is x's n images as w-byte LE words (w =
    word_width(n)), and ops.from_words(d) returns an element, the encoding
    of d's images, exactly when sorted(images) == list(range(n)): on random
    permutations, on words with one image repeated, and on words with one
    image >= n (every one-byte image below 256, and 2^32 - 1 past it).  At
    n = 1 and 2 every string of n one-byte words is tried."""
    rng = random.Random(n)
    ops, w = make_ops(n), word_width(n)
    # at n = 256 every byte is an image below n
    too_big = range(n, 256) if n < 256 else (n, (1 << 32) - 1) if n > 256 else ()
    perms = [list(random_perm(n, rng).images) for _ in range(30)]
    for images in perms:
        assert ops.words(ops.encode(images)) == plain_words(images, w)
    probes = list(perms)
    for images in perms[:15]:
        if n > 1:
            i, j = rng.sample(range(n), 2)
            probes.append(images[:j] + [images[i]] + images[j + 1 :])
        for big in too_big:
            probes.append(images[:])
            probes[-1][rng.randrange(n)] = big
    if n <= 2:
        probes += [list(d) for d in itertools.product(range(256), repeat=n)]
    for images in probes:
        element = ops.from_words(plain_words(images, w))
        if sorted(images) == list(range(n)):
            assert element == ops.encode(images), images
        else:
            assert element is None, images


def shuffled_gens(n, count, seed):
    """count permutations of degree n, each a stdlib shuffle of 0..n-1."""
    rng = random.Random(seed)
    gens = []
    for _ in range(count):
        images = list(range(n))
        rng.shuffle(images)
        gens.append(Permutation(tuple(images)))
    return tuple(gens)


# (verdict, elements tested for a prime cycle, SHA-256 of those elements as
# u32 words), computed while the search drew its slot pair with rng.sample.
# 24 generators make 24 slots, past the 21 where rng.sample's pool branch
# stops; one 64-cycle spans a transitive group that is no giant, so every
# checked step is tested.
@pytest.mark.parametrize("gens, pin", [
    pytest.param(shuffled_gens(8, 3, 11), (True, 1,
                 "ec96d4ccbb323f858770843de80e37c795e8d1c422014492a2235f458814ba31"), id="8x3"),
    pytest.param(shuffled_gens(64, 3, 67), (True, 14,
                 "6d4bf9492a13e63cc3f66e51cfef071d743220fceec46532db13fc18ef0c7cbd"), id="64x3"),
    pytest.param(shuffled_gens(64, 24, 88), (True, 1,
                 "8893619a08c0c972dd679a1a209375d3d858bc2188fe2929f5e6c0cac0516b0b"), id="64x24"),
    pytest.param(shuffled_gens(128, 3, 131), (True, 14,
                 "30035ca4cdaa65a193cae5874f383a9b4f24a36d21f8bf687d595dbd8e0166d7"), id="128x3"),
    pytest.param(shuffled_gens(260, 3, 263), (True, 42,
                 "e3b83393ab344b48aded0c2da0b82f0c8be9b2919955d177eeeefaa415ef9688"), id="260x3"),
    pytest.param((cycle_perm(64, tuple(range(64))),),
                 (False, 250, "e619da5b514f068cb6fbea3db92b8b4e337be16b018857a94f751aff4446a501"), id="c64"),
])
def test_certificate_search_is_pinned(monkeypatch, gens, pin):
    n = gens[0].n
    tested = []
    cycle_lengths = group._cycle_lengths

    def recording(p, degree):
        tested.append(struct.pack(f"<{degree}I", *p[:degree]))
        return cycle_lengths(p, degree)

    monkeypatch.setattr(group, "_cycle_lengths", recording)
    verdict = _certify_giant(make_ops(n), gens)
    assert (verdict, len(tested), hashlib.sha256(b"".join(tested)).hexdigest()) == pin


# --- closed forms of a certified giant ---

def certified_giant(n, alternating):
    """A certified S_n, or A_n, from a transposition or 3-cycle and a long cycle."""
    if alternating:
        gens = [cycle_perm(n, (0, 1, 2)), cycle_perm(n, tuple(range(1, n) if n % 2 == 0 else range(n)))]
    else:
        gens = [cycle_perm(n, (0, 1)), cycle_perm(n, tuple(range(n)))]
    assert certified(gens)
    return build_bsgs(gens)


@pytest.mark.parametrize("alternating", [False, True])
def test_certified_giant_keeps_no_chain(alternating):
    grp = certified_giant(64, alternating)
    assert not any(isinstance(value, _Level) for value in vars(grp).values())
    assert grp.order() == math.factorial(64) // (2 if alternating else 1)


# SHA-256 of 20 draws from Random(n), computed with the stabilizer chain the
# closed form replaced; n = 300 is past the byte-table limit.
@pytest.mark.parametrize("n, alternating, digest", [
    (9, False, "dad8a61df2f42117af84a6c553316556270584284719b4feaef51a9e7be5fe10"),
    (9, True, "21da412ea1d040fab885e052eaa77391a1a19dd3f8570907b0e09248ce63fb87"),
    (300, False, "565c77f30dd0cc9a837044486a432ff317024ef3462eacb50d43f52dc84165a1"),
    (300, True, "7189b30c8474a09fb53f82e7b937d38f98191d75de13c6a6d33aa601edc82ddb"),
])
def test_certified_giant_draws_are_pinned(n, alternating, digest):
    grp = certified_giant(n, alternating)
    rng = random.Random(n)
    data = b"".join(draw(grp, rng).to_bytes() for _ in range(20))
    assert hashlib.sha256(data).hexdigest() == digest


def randrange_walk(grp, rng):
    """The certified giant's draw written with rng.randrange, the reference
    for the getrandbits calls that sample_uniform makes itself."""
    n = grp.degree
    images = list(range(n))
    for i in grp.base:
        y = i + rng.randrange(n - i)
        if grp.giant == "S_n":
            images[i], images[y] = images[y], images[i]
        elif y != i:
            z = n - 1 if y != n - 1 else n - 2
            images[i], images[y], images[z] = images[y], images[z], images[i]
    return tuple(images)


# 256 draws its first level with 9 bits; 257 is the first degree of tuples.
@pytest.mark.parametrize("n", [9, 128, 256, 257, 300])
@pytest.mark.parametrize("alternating", [False, True])
def test_certified_giant_draws_match_the_randrange_walk(n, alternating):
    grp = certified_giant(n, alternating)
    ops = grp.ops
    # Rejecting makes every run of levels redraw
    for make_rng in (random.Random, Rejecting):
        for seed in range(50):
            fast, slow = make_rng(seed), make_rng(seed)
            raw, images = grp.sample_uniform(fast), randrange_walk(grp, slow)
            assert ops.decode(raw) == images
            assert raw == ops.encode(images)  # a byte table up to n = 256, the tuple past it
            assert grp.contains(raw)
            assert same_state(fast, slow)  # the same bits consumed in the same calls
    system = random.SystemRandom()
    for _ in range(50):
        p = draw(grp, system)  # Permutation validates the decoded images
        assert grp.contains(p) and not (alternating and is_odd(p))


@pytest.mark.parametrize("alternating", [False, True])
def test_certified_giant_refuses_wrong_degree(alternating):
    grp = certified_giant(12, alternating)
    for n in (11, 13):
        with pytest.raises(ValueError):
            grp.contains(identity(n))


@pytest.mark.parametrize("n", [8, 128])  # S_128 could never be enumerated
def test_certified_giant_checks_the_limit_first(n):
    with pytest.raises(ValueError):
        certified_giant(n, alternating=False).elements(100)


def test_giant_compares_the_order_with_n_factorial():
    a5 = [cycle_perm(5, (0, 1, 2)), cycle_perm(5, (0, 1, 2, 3, 4))]
    s5 = [cycle_perm(5, (0, 1)), cycle_perm(5, (0, 1, 2, 3, 4))]
    assert build_bsgs(s5).giant == "S_n"  # below degree 8: Schreier-Sims
    assert build_bsgs(a5).giant == "A_n"
    assert certified_giant(12, alternating=False).giant == "S_n"
    assert certified_giant(12, alternating=True).giant == "A_n"
    for name, gens in _non_giant_sets().items():
        assert build_bsgs(gens).giant == "no", name
