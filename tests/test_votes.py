from dataclasses import replace

import pytest

from ffg.chain import VoteData
from ffg.errors import BadSignature
from ffg.votes import Keyring, VotePool, classify_vote, sign_vote

from conftest import World
from ffg.config import ProtocolConfig


def small_world():
    return World(ProtocolConfig(spacing=2, delta=4), [100, 100, 100])


def test_sign_deterministic_and_roundtrip(keyring):
    s, t = b"\x01" * 32, b"\x02" * 32
    v1 = sign_vote(keyring, 0, s, t, 0, 1)
    v2 = sign_vote(keyring, 0, s, t, 0, 1)
    assert v1.signature == v2.signature
    assert keyring.verify(v1)
    different_target = sign_vote(keyring, 0, s, b"\x03" * 32, 0, 1)
    assert different_target.signature != v1.signature


def test_forged_signature_detected(keyring):
    v = sign_vote(keyring, 0, b"\x01" * 32, b"\x02" * 32, 0, 1)
    forged = VoteData(v.validator_index, v.validator_pubkey, v.source, v.target,
                      v.source_height, v.target_height, b"\x00" * 32)
    assert not keyring.verify(forged)


def test_classify_countable_and_demotions():
    w = small_world()
    blocks = w.grow(4)
    c1, c2 = blocks[1].id, blocks[3].id

    good = sign_vote(w.keyring, 0, c1, c2, 1, 2)
    assert classify_vote(w.tree, w.cache.snapshot_for, good) \
        is w.cache.snapshot_for(c2)

    # source not an ancestor of target
    side = w.grow(2, start=w.tree.root, proposer=1)
    sideways = sign_vote(w.keyring, 0, side[1].id, c2, 1, 2)
    assert classify_vote(w.tree, w.cache.snapshot_for, sideways) is None

    # an end that is no checkpoint: block heights 1 and 3, with spacing 2
    mid_source = sign_vote(w.keyring, 0, blocks[0].id, c2, 0, 2)
    mid_target = sign_vote(w.keyring, 0, c1, blocks[2].id, 1, 2)
    for vote in (mid_source, mid_target):
        assert classify_vote(w.tree, w.cache.snapshot_for, vote) is None

    # stated heights disagree with the tree
    wrong_h = sign_vote(w.keyring, 0, c1, c2, 1, 5)
    assert classify_vote(w.tree, w.cache.snapshot_for, wrong_h) is None

    # source at or above target
    backwards = sign_vote(w.keyring, 0, c2, c1, 2, 1)
    assert classify_vote(w.tree, w.cache.snapshot_for, backwards) is None

    # validator outside both membership sets
    stranger = sign_vote(w.keyring, 9, c1, c2, 1, 2)
    assert classify_vote(w.tree, w.cache.snapshot_for, stranger) is None

    # a forged signature: the rule itself reads no signature, and the run's
    # verdict drops the vote on its record's signature verdict
    forged = VoteData(0, good.validator_pubkey, c1, c2, 1, 2, b"\x00" * 32)
    assert not w.keyring.verify(forged)
    assert w.cache.classify(w.cache.record(forged)) is None


def test_pool_dedupe_and_indexes():
    w = small_world()
    blocks = w.grow(4)
    c1, c2 = blocks[1].id, blocks[3].id
    pool = VotePool(w.keyring)
    v = sign_vote(w.keyring, 0, c1, c2, 1, 2)
    assert pool.add(v)
    assert not pool.add(v)
    assert len(pool) == 1
    assert pool.link_votes(c1, c2) == [v]
    assert pool.validator_votes(0) == [v]


def test_pool_rejects_forged():
    w = small_world()
    pool = VotePool(w.keyring)
    sign_vote(w.keyring, 0, b"\x01" * 32, b"\x02" * 32, 0, 1)  # registers key
    forged = VoteData(0, w.keyring.pubkey(0), b"\x01" * 32, b"\x02" * 32,
                      0, 1, b"\x00" * 32)
    with pytest.raises(BadSignature):
        pool.add(forged)


def test_pool_retains_slashing_material():
    # two distinct votes by one validator at the same target height stay
    # visible even though only one can ever count toward a link
    w = small_world()
    blocks = w.grow(4)
    c1, c2 = blocks[1].id, blocks[3].id
    pool = VotePool(w.keyring)
    a = sign_vote(w.keyring, 0, c1, c2, 1, 2)
    b = sign_vote(w.keyring, 0, w.tree.root, c2, 0, 2)
    pool.add(a)
    pool.add(b)
    assert len(pool.validator_votes(0)) == 2


def test_verify_memo_checks_pubkey():
    # a copy of a valid vote under another validator's pubkey fails the slow
    # path; the memo must not accept it after the genuine vote was verified
    keyring = Keyring(seed=42)
    s, t = b"\x01" * 32, b"\x02" * 32
    genuine = sign_vote(keyring, 0, s, t, 0, 1)
    wrong = replace(genuine, validator_pubkey=keyring.register(1))
    assert not keyring.verify(wrong)
    assert keyring.verify(genuine)
    assert not keyring.verify(wrong)
    with pytest.raises(BadSignature):
        VotePool(keyring).add(wrong)


def test_vote_key_is_computed_once_and_left_out_of_identity(keyring):
    v = sign_vote(keyring, 0, b"\x01" * 32, b"\x02" * 32, 0, 1)
    assert v.key == (0, b"\x01" * 32, b"\x02" * 32, 0, 1)
    assert v.key is v.key
    moved = replace(v, source_height=3)
    assert moved.key == (0, b"\x01" * 32, b"\x02" * 32, 3, 1)
    assert v.key == (0, b"\x01" * 32, b"\x02" * 32, 0, 1)
    # the key is not a field of the vote's identity: a vote carrying a stale
    # key still equals, hashes as and prints as a freshly built one
    stale = replace(v)
    object.__setattr__(stale, "key", ("stale",))
    assert stale == v and hash(stale) == hash(v)
    assert repr(stale) == repr(v) and " key=" not in repr(v)
    assert stale.encode() == v.encode()


def test_verify_memo_gives_copies_the_same_verdict(keyring):
    s, t = b"\x01" * 32, b"\x02" * 32
    genuine = sign_vote(keyring, 0, s, t, 0, 1)
    forged = replace(genuine, signature=bytes(32))
    wrong = replace(genuine, validator_pubkey=keyring.register(1))
    assert keyring.verify(genuine)
    # value-equal copies are other objects, judged again to the same verdict
    assert keyring.verify(replace(genuine))
    for _ in range(2):
        assert not keyring.verify(forged)
        assert not keyring.verify(replace(forged))
        assert not keyring.verify(wrong)
    assert keyring.verify(genuine)


def test_verify_memo_hits_only_for_the_same_object(keyring):
    genuine = sign_vote(keyring, 0, b"\x01" * 32, b"\x02" * 32, 0, 1)
    forged = replace(genuine, signature=bytes(32))
    # an entry under the forgery's id that belongs to another object
    keyring._verified[id(forged)] = (genuine, True)
    assert not keyring.verify(forged)


def test_verify_memo_never_returns_a_stale_verdict_for_short_lived_votes(keyring):
    # each vote is dropped after its check, so a memo keyed by a bare id
    # would meet recycled ids; every verdict must still be the vote's own
    s, t = b"\x01" * 32, b"\x02" * 32
    pubkeys = [keyring.register(i) for i in range(4)]
    for i in range(3000):
        vote = sign_vote(keyring, i % 4, s, t, i % 7, 7 + i % 5)
        if i % 3 == 1:
            vote = replace(vote, signature=bytes(32))
        elif i % 3 == 2:
            vote = replace(vote, validator_pubkey=pubkeys[(i + 1) % 4])
        assert keyring.verify(vote) is (i % 3 == 0)
