import random

import pytest
from hypothesis import given, strategies as st

from ffg.chain import (GENESIS_ID, BlockTree, Deposit, SlashEvidence, VoteData,
                       VoteInclusion, Withdraw, block_id, encode_block_body,
                       make_block)
from ffg.errors import (DigestMismatch, DuplicateId, NonMonotonicTimestamp,
                        NotACheckpoint, NotAncestor, UnknownBlock, UnknownParent)

E = 2


def tree_with_chain(n, spacing=E):
    tree = BlockTree(spacing)
    parent = tree.get(GENESIS_ID)
    blocks = [parent]
    for i in range(n):
        b = make_block(parent, i + 1, None)
        tree.insert_block(b)
        blocks.append(b)
        parent = b
    return tree, blocks


def test_insert_root_only():
    tree = BlockTree(E)
    assert len(tree) == 1
    assert tree.get(GENESIS_ID).height == 0


def test_insert_child_and_height():
    tree, blocks = tree_with_chain(1)
    assert blocks[1].height == 1
    assert tree.get(blocks[1].id).parent == GENESIS_ID


def test_insert_unknown_parent():
    tree = BlockTree(E)
    orphan = make_block(tree.get(GENESIS_ID), 1, None)
    bad = make_block(orphan, 2, None)
    with pytest.raises(UnknownParent):
        tree.insert_block(bad)


def test_insert_duplicate():
    tree, blocks = tree_with_chain(1)
    with pytest.raises(DuplicateId):
        tree.insert_block(blocks[1])


def test_insert_digest_mismatch():
    tree, blocks = tree_with_chain(1)
    forged = VoteData(0, b"\x00" * 32, GENESIS_ID, GENESIS_ID, 0, 1, b"\x00" * 32)
    tampered = blocks[1].__class__(blocks[1].id, GENESIS_ID, 1, 1, None,
                                   (VoteInclusion(forged),))
    tree2 = BlockTree(E)
    with pytest.raises(DigestMismatch):
        tree2.insert_block(tampered)


def test_timestamps_strictly_increase():
    tree, blocks = tree_with_chain(2)
    stale = make_block(blocks[2], blocks[2].timestamp, None)
    with pytest.raises(NonMonotonicTimestamp):
        tree.insert_block(stale)


def test_extend_builds_the_canonical_child_and_inserts_it():
    tree, blocks = tree_with_chain(2)
    payload = (Deposit(5, b"\xaa" * 32, 1000),)
    child = tree.extend(blocks[1].id, 7, 3, payload)
    assert child == make_block(blocks[1], 7, 3, payload)
    assert tree.get(child.id) is child
    assert tree.leaves() == [blocks[2].id, child.id]


def test_extend_checks_what_construction_leaves_open():
    tree, blocks = tree_with_chain(2)
    with pytest.raises(NonMonotonicTimestamp):
        tree.extend(blocks[2].id, blocks[2].timestamp, None)
    with pytest.raises(NonMonotonicTimestamp):
        tree.extend(blocks[2].id, blocks[1].timestamp, None)
    with pytest.raises(UnknownBlock):
        tree.extend(b"\xaa" * 32, 9, None)
    with pytest.raises(DuplicateId):
        tree.extend(GENESIS_ID, blocks[1].timestamp, None)
    assert len(tree) == 3


def test_checkpoint_height():
    tree, blocks = tree_with_chain(6)
    # height 3*E with spacing E has checkpoint height 3
    assert tree.checkpoint_height(blocks[6].id) == 3
    assert tree.checkpoint_height(GENESIS_ID) == 0
    assert tree.checkpoint_height(blocks[3].id) is None
    with pytest.raises(UnknownBlock):
        tree.checkpoint_height(b"\xaa" * 32)
    with pytest.raises(NotACheckpoint):
        tree.require_checkpoint(blocks[3].id)


def test_is_ancestor_basics():
    tree, blocks = tree_with_chain(4)
    assert tree.is_ancestor(GENESIS_ID, blocks[4].id)
    assert tree.is_ancestor(blocks[2].id, blocks[2].id)
    assert not tree.is_ancestor(blocks[4].id, blocks[2].id)


def test_is_ancestor_agrees_with_parent_walk_oracle():
    rng = random.Random(7)
    tree = BlockTree(E)
    ids = [GENESIS_ID]
    for i in range(49):
        parent = tree.get(rng.choice(ids))
        b = make_block(parent, parent.timestamp + rng.randint(1, 3), i)
        tree.insert_block(b)
        ids.append(b.id)

    def oracle(a, b):
        cursor = b
        while cursor is not None:
            if cursor == a:
                return True
            cursor = tree.get(cursor).parent
        return False

    for a in ids:
        for b in ids:
            assert tree.is_ancestor(a, b) == oracle(a, b)


def test_ancestor_at_above_block_raises_not_ancestor():
    tree, blocks = tree_with_chain(2)
    assert tree.ancestor_at(blocks[2].id, 1) == blocks[1].id
    assert tree.ancestor_at(blocks[1].id, 1) == blocks[1].id
    with pytest.raises(NotAncestor):
        tree.ancestor_at(blocks[1].id, 5)


def test_fold_fills_each_missing_ancestor_once_root_side_first():
    tree, blocks = tree_with_chain(5)
    fork = make_block(blocks[2], 10, None)
    tree.insert_block(fork)
    calls = []

    def depth(parent_value, block, extra):
        calls.append(block.id)
        return parent_value + extra

    memo = {GENESIS_ID: 0, blocks[1].id: 10}
    assert tree.fold(blocks[4].id, memo, depth, 1) == 13
    assert calls == [b.id for b in blocks[2:5]]
    assert memo == {GENESIS_ID: 0} | {b.id: 9 + i for i, b in enumerate(blocks[1:5], 1)}
    # the fork's missing block alone is stepped, from its memoized parent
    assert tree.fold(fork.id, memo, depth, 1) == 12
    assert calls[3:] == [fork.id]


def test_fold_memo_hit_calls_no_step():
    tree, blocks = tree_with_chain(3)
    memo = {GENESIS_ID: 0, blocks[3].id: 7}

    def step(parent_value, block):
        raise AssertionError("stepped on a memo hit")

    assert tree.fold(blocks[3].id, memo, step) == 7
    assert tree.fold(GENESIS_ID, memo, step) == 0
    assert memo == {GENESIS_ID: 0, blocks[3].id: 7}


def test_fold_unknown_id_raises_unknown_block():
    tree, _blocks = tree_with_chain(2)
    memo = {GENESIS_ID: 0}
    with pytest.raises(UnknownBlock):
        tree.fold(b"\x07" * 32, memo, lambda value, block: value + 1)
    assert memo == {GENESIS_ID: 0}


def test_leaves_match_parent_scan_in_order():
    rng = random.Random(11)
    tree = BlockTree(E)
    ids = [GENESIS_ID]
    for i in range(60):
        parent = tree.get(rng.choice(ids[-8:]))
        b = make_block(parent, parent.timestamp + 1, i)
        tree.insert_block(b)
        ids.append(b.id)
        parents = {blk.parent for blk in tree.iter_blocks()}
        scan = [bid for bid in tree.blocks if bid not in parents]
        assert tree.leaves() == scan


def test_conflicting_and_trichotomy():
    tree = BlockTree(E)
    root = tree.get(GENESIS_ID)
    left = make_block(root, 1, None)
    tree.insert_block(left)
    l2 = make_block(left, 2, None)
    tree.insert_block(l2)
    right = make_block(root, 1, 0)
    tree.insert_block(right)
    r2 = make_block(right, 2, 0)
    tree.insert_block(r2)

    assert not tree.conflicting(GENESIS_ID, l2.id)          # parent/child
    assert tree.conflicting(l2.id, r2.id)                   # two branches
    assert tree.conflicting(r2.id, l2.id)                   # symmetric
    assert not tree.conflicting(l2.id, l2.id)               # irreflexive

    checkpoints = [GENESIS_ID, l2.id, r2.id]
    for a in checkpoints:
        for b in checkpoints:
            fwd = tree.is_ancestor(a, b)
            back = tree.is_ancestor(b, a)
            conf = tree.conflicting(a, b)
            # exactly one relation holds for distinct checkpoints
            if a == b:
                assert fwd and back and not conf
            else:
                assert sum([fwd, back, conf]) == 1


# -- canonical encodings -------------------------------------------------------

@given(st.tuples(st.integers(0, 2**32), st.binary(min_size=32, max_size=32),
                 st.binary(min_size=32, max_size=32),
                 st.integers(0, 2**40), st.integers(0, 2**40)),
       st.tuples(st.integers(0, 2**32), st.binary(min_size=32, max_size=32),
                 st.binary(min_size=32, max_size=32),
                 st.integers(0, 2**40), st.integers(0, 2**40)))
def test_vote_encoding_injective(a, b):
    va = VoteData(a[0], b"\x01" * 32, a[1], a[2], a[3], a[4], b"\x02" * 32)
    vb = VoteData(b[0], b"\x01" * 32, b[1], b[2], b[3], b[4], b"\x02" * 32)
    if a != b:
        assert va.encode() != vb.encode()
    else:
        assert va.encode() == vb.encode()


def test_transaction_encodings_distinct_per_kind():
    v = VoteData(1, b"\x01" * 32, b"\x02" * 32, b"\x03" * 32, 0, 1, b"\x04" * 32)
    txs = [VoteInclusion(v), SlashEvidence(v, v), Deposit(1, b"\x01" * 32, 5),
           Withdraw(1, b"\x01" * 32)]
    encodings = [tx.encode() for tx in txs]
    assert len(set(encodings)) == len(encodings)
    tags = {enc[0] for enc in encodings}
    assert len(tags) == len(encodings)


def test_golden_byte_layouts():
    # frozen fixtures: changing any encoding invalidates every recorded digest
    v = VoteData(5, b"\xaa" * 32, b"\x01" * 32, b"\x02" * 32, 3, 4, b"\xbb" * 32)
    assert v.encode().hex() == (
        "0000000000000005" + "aa" * 32 + "01" * 32 + "02" * 32
        + "0000000000000003" + "0000000000000004" + "bb" * 32)
    assert Deposit(5, b"\xaa" * 32, 1000).encode().hex() == (
        "03" + "0000000000000005" + "aa" * 32 + "00000000000003e8")
    assert Withdraw(5, b"\xaa" * 32).encode().hex() == (
        "04" + "0000000000000005" + "aa" * 32)
    assert VoteInclusion(v).encode()[:5].hex() == "0100000098"
    ev = SlashEvidence(v, v).encode()
    assert len(ev) == 1 + 2 * (4 + 152)
    assert ev[:5].hex() == "0200000098"
    bid = block_id(b"\x01" * 32, 7, 9, None, (Deposit(5, b"\xaa" * 32, 1000),))
    assert bid.hex() == \
        "ef54cef92a3e4164215d2dfc60c082a519fb345132a1650b162c796df1dc5851"
    assert encode_block_body(b"\x01" * 32, 7, 9, 3, ()).hex() == (
        "01" * 32 + "0000000000000007" + "0000000000000009"
        + "0000000000000003" + "00000000")


def test_block_id_changes_with_any_field():
    tree, blocks = tree_with_chain(1)
    base = blocks[1]
    other_time = make_block(tree.get(GENESIS_ID), base.timestamp + 1, None)
    other_prop = make_block(tree.get(GENESIS_ID), base.timestamp, 3)
    assert len({base.id, other_time.id, other_prop.id}) == 3
    assert len(base.id) == 32
