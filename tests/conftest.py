import pytest

from ffg.chain import BlockTree, VoteInclusion, make_block

ACCEPTANCE_RESULTS: list[str] = []


def record_criterion(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_RESULTS.append(f"criterion {number} [{name}]: {status}{suffix}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
from ffg.config import ProtocolConfig
from ffg.finality import ChainStateCache
from ffg.validators import ValidatorRegistry
from ffg.votes import Keyring, VotePool, sign_vote


@pytest.fixture
def proto():
    return ProtocolConfig(spacing=2, delta=4, withdrawal_delay=10)


@pytest.fixture
def keyring():
    return Keyring(seed=42)


def slashed_validators(state):
    """The validators the chain state's registry records as slashed: the
    ones its chain has included valid evidence against."""
    return {index for index, rec in state.registry.records.items()
            if rec.slashed}


def build_chain(tree, length, proposer=None, start=None, t0=None):
    """Extend with `length` empty blocks; returns the list of new blocks."""
    parent = tree.get(start or tree.root)
    t = t0 if t0 is not None else parent.timestamp
    out = []
    for i in range(length):
        block = make_block(parent, t + i + 1, proposer, ())
        tree.insert_block(block)
        out.append(block)
        parent = block
    return out


class World:
    """Static-validator-set world: tree, pool, cache, and vote helpers."""

    def __init__(self, proto, weights, seed=42):
        self.proto = proto
        self.keyring = Keyring(seed)
        self.registry = ValidatorRegistry()
        for index, deposit in enumerate(weights):
            self.keyring.register(index)
            self.registry.add_genesis_validator(index, deposit)
        self.tree = BlockTree(proto.spacing)
        self.cache = ChainStateCache(self.tree, proto, self.keyring, self.registry)
        self.pool = VotePool(self.keyring)
        self.weights = list(weights)

    def grow(self, length, start=None, proposer=None):
        return build_chain(self.tree, length, proposer, start)

    def checkpoint_at(self, leaf, cp_height):
        return self.tree.ancestor_at(leaf, cp_height * self.proto.spacing)

    def vote(self, index, source, target):
        v = sign_vote(self.keyring, index, source, target,
                      self.tree.require_checkpoint(source),
                      self.tree.require_checkpoint(target))
        self.pool.add(v)
        return v

    def votes(self, indexes, source, target):
        return [self.vote(i, source, target) for i in indexes]

    def include(self, parent_block, votes, timestamp=None):
        """One block carrying the given votes."""
        t = timestamp if timestamp is not None else parent_block.timestamp + 1
        block = make_block(parent_block, t, None,
                           tuple(VoteInclusion(v) for v in votes))
        self.tree.insert_block(block)
        return block


@pytest.fixture
def world(proto):
    return World(proto, [100, 100, 100])
