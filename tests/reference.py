"""The plain reference the tests check the program against, and every
helper that more than one test module uses; test modules import no other
test module, and pytest collects no test from this file.

The reference is written from README's format in plain loops: it parses
proofs and responses, opens each commitment with its own SHA-256, masks
word by word (each word XOR the matching word of SHAKE-256(seed), as
addition in GF(2^8w) is), and derives the challenges one stream byte at
a time.  It imports no codec and shares none of the raw-form code (byte
tables, the one-integer XOR, ops.differing_words, the translated
challenge stream) that the program runs.
"""

import hashlib
import random

import sdzkp.group as group
from sdzkp.analysis import cheating_acceptance_rate
from sdzkp.crypto import COMMIT_TAGS, commit
from sdzkp.instance import instance_digest
from sdzkp.perm import Permutation, compose, inverse

# The format's constants, as README states them.
MAGIC = b"SDP4"
FS_DOMAIN = b"SDZKP-FS-v4"
COMMITMENT = 96
# what each kind opens, in wire order: slot 0 is Z1, 1 is Z2, 2 the seed
OPENED = {0: (0, 2), 1: (1, 2), 2: (0, 1)}
SEED_SLOT = 2


# --- words and the mask ---

def word_bytes(n):
    """w: the bytes of one word of a masked value at degree n."""
    return 1 if n <= 256 else 4


def words_of(value, n):
    """A masked value's n words, each w little-endian bytes."""
    w = word_bytes(n)
    return [int.from_bytes(value[w * i : w * i + w], "little") for i in range(n)]


def pack_words(words, w):
    """words as one value: each w little-endian bytes, one after another."""
    return b"".join(word.to_bytes(w, "little") for word in words)


def mask_words(seed, n):
    """The mask: SHAKE-256(seed) read as n words of w bytes."""
    return words_of(hashlib.shake_256(seed).digest(word_bytes(n) * n), n)


def masked_words(words, seed, n):
    """words plus the mask word by word in GF(2^8w), which is XOR.
    ValueError unless there are n words, each an int of w bytes."""
    if len(words) != n:
        raise ValueError(f"{len(words)} words at degree {n}")
    for word in words:
        if not isinstance(word, int) or not 0 <= word < 1 << (8 * word_bytes(n)):
            raise ValueError(f"not a word of {word_bytes(n)} bytes: {word!r}")
    return tuple(word ^ m for word, m in zip(words, mask_words(seed, n)))


def masked_value(words, seed, n):
    """words masked under seed, written back as w bytes each."""
    return pack_words(masked_words(words, seed, n), word_bytes(n))


def weight(t):
    """The count of nonzero entries of t."""
    return sum(1 for x in t if x != 0)


def edge_words(w):
    """Words at the edges of a word of w bytes: its low and top bits."""
    top = 1 << (8 * w)
    return (0, 1, top // 2 - 1, top // 2, top - 1)


def arbitrary_words(n, rng):
    """n words of w bytes, each an edge of the word range or a uniform word."""
    top = 1 << (8 * word_bytes(n))
    return [rng.choice((0, 1, min(n, top - 1), top // 2 - 1, top // 2, top - 1, rng.randrange(top))) for _ in range(n)]


# --- commitments, responses and proofs ---

def digests_of(commitment):
    """The three 32-byte digests of a 96-byte commitment, slot by slot."""
    return tuple(commitment[32 * slot : 32 * slot + 32] for slot in range(3))


def commit_slot(message, tag, rng):
    """The digest and opening of message in the slot of `tag`, from one
    crypto.commit of a round that holds message in all three slots."""
    slot = COMMIT_TAGS.index(tag)
    openings, commitment = commit(message, message, message, rng.randbytes(3 * 32))
    return digests_of(commitment)[slot], openings[slot]


def reference_read_response(data, at, n):
    """The response at degree n that starts at offset `at` of data, read by
    the format: a kind byte, each value the kind opens (a masked value as
    w·n bytes, the seed as 32), then one 32-byte opening per value.
    Returns (kind, values, openings) and the offset past it; ValueError if
    the kind is unknown or data ends first."""
    if at >= len(data) or data[at] not in OPENED:
        raise ValueError("no response kind")
    kind, at, values = data[at], at + 1, []
    for slot in OPENED[kind]:
        length = 32 if slot == SEED_SLOT else word_bytes(n) * n
        values.append(data[at : at + length])
        at += length
    openings = []
    for _ in values:
        openings.append(data[at : at + 32])
        at += 32
    if at > len(data):
        raise ValueError("truncated response")
    return (kind, tuple(values), tuple(openings)), at


def reference_read_proof(data, n):
    """A proof at degree n read by the format: the magic SDP4, a u32 round
    count, then per round a 96-byte commitment and a response
    (reference_read_response).  Returns each round's (commitment,
    response); ValueError unless the last round ends where data does."""
    if data[:4] != MAGIC or len(data) < 8:
        raise ValueError("bad header")
    count = int.from_bytes(data[4:8], "little")
    rounds, at = [], 8
    for _ in range(count):
        commitment, start = data[at : at + COMMITMENT], at + COMMITMENT
        _, at = reference_read_response(data, start, n)
        rounds.append((commitment, data[start:at]))
    if at != len(data):
        raise ValueError("trailing bytes")
    return rounds


def reference_round(inst, commitment, challenge, response):
    """What one round shows by definition, on its wire bytes, or None unless
    it verifies: the response parsed by reference_read_response, then its
    kind, its openings (SHA-256 of the tag C1, C2 or C3, the opening and
    the value), and the challenge's predicate.  A round shows the member's
    image tuple at challenges 0 and 1 (u∘h, then u) and the distance at 2."""
    n = inst.degree
    try:
        (kind, values, openings), end = reference_read_response(response, 0, n)
    except ValueError:
        return None
    if kind != challenge or end != len(response) or len(commitment) != COMMITMENT:
        return None
    for slot, value, opening in zip(OPENED[challenge], values, openings):
        tag = b"C%d" % (slot + 1)
        if hashlib.sha256(tag + opening + value).digest() != digests_of(commitment)[slot]:
            return None
    if challenge == 2:
        a, b = (words_of(value, n) for value in values)
        distance = weight([x ^ y for x, y in zip(a, b)])
        return distance if distance <= inst.max_distance else None
    z, seed = values
    try:
        member = Permutation(masked_words(words_of(z, n), seed, n))
    except ValueError:
        return None
    if challenge == 1:
        member = compose(member, inverse(inst.target))
    return member.images if inst.group.contains(member) else None


# --- the challenge stream ---

def shake_stream(data):
    """The bytes of SHAKE-256(data), one at a time, for as long as they are
    taken (each longer read's first bytes are the shorter read's)."""
    length, at = 64, 0
    while True:
        stream = hashlib.shake_256(data).digest(length)
        for byte in stream[at:]:
            yield byte
        at, length = length, 2 * length


def fs_prefix(statement_digest, context, commitments):
    """What the challenge stream hashes: the domain ‖ u32 len(context) ‖
    context ‖ statement digest ‖ every commitment."""
    return FS_DOMAIN + len(context).to_bytes(4, "little") + context + statement_digest + b"".join(commitments)


def reference_challenges(statement_digest, context, commitments):
    """The challenge rule written plainly: one SHAKE-256 stream over
    fs_prefix; round i's challenge is the i-th byte of it that is not 255,
    mod 3."""
    stream, challenges = shake_stream(fs_prefix(statement_digest, context, commitments)), []
    while len(challenges) < len(commitments):
        byte = next(stream)
        if byte != 255:
            challenges.append(byte % 3)
    return challenges


def reference_verify(inst, data, context, rounds) -> bool:
    """Whether data is a proof of exactly `rounds` rounds of which every
    round shows something (reference_round) under its derived challenge."""
    try:
        proof = reference_read_proof(data, inst.degree)
    except ValueError:
        return False
    if len(proof) != rounds:
        return False
    commitments = [commitment for commitment, _ in proof]
    challenges = reference_challenges(instance_digest(inst), context, commitments)
    return all(reference_round(inst, com, ch, rsp) is not None for (com, rsp), ch in zip(proof, challenges))


# --- session frames ---

def frame(msg_type, body, length=None):
    """A session frame as README states it: a u32 length, 1 + len(body)
    unless given, then the type byte and the body."""
    return (1 + len(body) if length is None else length).to_bytes(4, "little") + bytes([msg_type]) + body


# --- families, groups and draws ---

# (degree, generators, k, preset): A_5-or-S_5 at n = 5, S_12, A_16, a
# 5-level abelian2 chain, the benchmark's S_128, and A_260, past the
# byte-table limit.
FAMILIES = {
    "n5": (5, 2, 2, "general"),
    "S12": (12, 3, 4, "general"),
    "A16": (16, 4, 6, "general"),
    "abelian2-16": (16, 5, 4, "abelian2"),
    "S128": (128, 3, 32, "general"),
    "A260": (260, 3, 65, "general"),
}


def cycle_perm(n, *cycles):
    images = list(range(n))
    for points in cycles:
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return Permutation(tuple(images))


def s4_wr_s4():
    """S_4 wr S_4 on blocks {4b, .., 4b+3}: not giant, not abelian, a
    byte-table chain."""
    n = 16
    return group.build_bsgs([
        cycle_perm(n, (0, 1)),
        cycle_perm(n, (0, 1, 2, 3)),
        cycle_perm(n, (0, 4), (1, 5), (2, 6), (3, 7)),
        cycle_perm(n, *[tuple(range(i, n, 4)) for i in range(4)]),
    ])


class Rejecting(random.Random):
    """Answers every other getrandbits(k) call with 2^k - 1, the value each
    bounded draw rejects, so every redraw loop runs."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return (1 << k) - 1 if self.calls % 2 else super().getrandbits(k)


def same_state(fast, slow):
    """Whether two rngs stand where each other does: the next rng.random()
    tells the two states apart, and a Rejecting one counts its calls."""
    return fast.random() == slow.random() and getattr(fast, "calls", 0) == getattr(slow, "calls", 0)


def randrange_walk(grp, rng):
    """grp.sample_uniform's draw written with rng.randrange, as an image
    tuple.  A group that keeps a chain draws one uniform coset
    representative per level, multiplied on the right; a certified giant,
    which keeps none, swaps each base point i with a uniform y >= i (on
    A_n a 3-cycle through a third point instead, when y != i)."""
    if grp._levels is not None:
        ops = grp.ops
        acc = ops.ident
        for level in grp._levels:
            acc = ops.then(level.reps[rng.randrange(len(level.reps))], acc)
        return ops.decode(acc)
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


def certificate_search(monkeypatch, ops, gens):
    """group._certify_giant's verdict on gens, and the elements it tests
    for a Jordan cycle, each as u32 words."""
    tested, cycle_lengths = [], group._cycle_lengths

    def recording(p, degree):
        tested.append(pack_words(p[:degree], 4))
        return cycle_lengths(p, degree)

    with monkeypatch.context() as patched:
        patched.setattr(group, "_cycle_lengths", recording)
        return group._certify_giant(ops, gens), tested


# --- oracles ---

def brute_force_distance(inst, limit=1 << 20):
    """The exhaustive minimum of d(h, target) over H, counted image by
    image: (distance, minimizer), ties broken by the group's enumeration
    order.  ValueError when |H| exceeds limit."""
    def distance(h):
        return sum(1 for a, b in zip(h.images, inst.target.images) if a != b)

    best = min(inst.group.elements(limit), key=distance)  # the first of the least
    return distance(best), best


def amplified_cheating_accepts(inst, targets, rounds, trials, rng):
    """How many of `trials` sessions of `rounds` rounds a cheater wins, each
    round a fresh cheating state under a uniform challenge: a session is
    won only if every round is, so the expected win rate is (2/3)^rounds."""
    return sum(all(cheating_acceptance_rate(inst, targets, 1, rng) == 1 for _ in range(rounds)) for _ in range(trials))
