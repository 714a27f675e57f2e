"""Canonical byte encodings for blocks, transactions, and votes.

Every digest and signature in the system is computed over these encodings, so
they are length-prefixed and injective per kind:

    u64       8-byte big-endian unsigned integer
    blob      u32 length prefix followed by the raw bytes
    vote core source(32) || target(32) || u64 h_s || u64 h_t
    vote      u64 index || pubkey(32) || vote core || signature(32)
    tx        1-byte tag, then tag-specific fields (votes length-prefixed)
    block     parent(32) || u64 height || u64 timestamp || u64 proposer ||
              u32 tx count || blob(tx) ...

The proposer field uses 2**64-1 as the sentinel for the external proposal
engine, and a block's id is the SHA-256 `digest` of its encoding.  Golden
fixtures pin these layouts; changing them invalidates every recorded digest.
"""

from __future__ import annotations

import hashlib
import struct

EXTERNAL_PROPOSER = 2**64 - 1
# a block's fields after its parent: u64 height, u64 timestamp, u64 proposer
# and u32 tx count, in one pack
BLOCK_HEADER = struct.Struct(">QQQI")


def u64(value: int) -> bytes:
    return value.to_bytes(8, "big")


def u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def blob(data: bytes) -> bytes:
    return u32(len(data)) + data


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def encode_vote_core(source: bytes, target: bytes, source_height: int,
                     target_height: int) -> bytes:
    """The message a validator signs: the vote minus identity and signature."""
    return source + target + u64(source_height) + u64(target_height)


def encode_vote(index: int, pubkey: bytes, source: bytes, target: bytes,
                source_height: int, target_height: int, signature: bytes) -> bytes:
    return (u64(index) + pubkey
            + encode_vote_core(source, target, source_height, target_height)
            + signature)
