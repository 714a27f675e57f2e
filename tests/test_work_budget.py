"""Work budgets of whole runs: what a run hashes, signs and looks up, counted
over the golden corpus and fuzz configs 0-49.

* each block is hashed once, when it is built (`BlockTree.extend`); views
  receive the objects the run's tree holds, so they hash nothing;
* each vote costs one HMAC, when it is signed; every later verification of
  that object reads the keyring's memo;
* delivery looks a block's chain state up once per heap entry, for every
  view the entry names, and once more per block a view releases from its
  pending buffer.

It also guards that a run leaves no cyclic garbage, so that a run could do
without the cyclic collector.
"""

import gc
import hmac
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import ffg.chain
import ffg.votes
from ffg.finality import ChainStateCache
from ffg.fork_choice import ClientView
from ffg.sim import Network, Simulation, config_from_dict, run

from test_acceptance import fuzz_config

CORPUS = Path(__file__).resolve().parent.parent / "scenarios"


def budget_configs():
    names = sorted(json.loads((CORPUS / "digests.json").read_text()))
    corpus = [config_from_dict(json.loads((CORPUS / name).read_text()))
              for name in names]
    return corpus + [fuzz_config(seed) for seed in range(50)]


def counting(counts, key, function):
    def counted(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)
    return counted


def test_each_block_hashed_each_vote_signed_and_each_entry_looked_up_once(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(ffg.chain, "block_id",
                        counting(counts, "digests", ffg.chain.block_id))
    monkeypatch.setattr(ffg.votes, "hmac", SimpleNamespace(
        new=counting(counts, "hmacs", hmac.new),
        compare_digest=hmac.compare_digest))
    sign_vote = ffg.votes.sign_vote
    for module in [m for name, m in sys.modules.items() if name.startswith("ffg")]:
        if getattr(module, "sign_vote", None) is sign_vote:
            monkeypatch.setattr(module, "sign_vote",
                                counting(counts, "signed", sign_vote))

    # delivery's own lookups: by the network per heap entry, and by a view
    # per insertion it was given no state for
    delivery_code = {Network.deliver.__code__, Simulation.deliver.__code__,
                     ClientView._insert.__code__}
    get = ChainStateCache.get

    def counted_get(cache, block_id):
        if sys._getframe(1).f_code in delivery_code:
            counts["lookups"] += 1
        return get(cache, block_id)
    monkeypatch.setattr(ChainStateCache, "get", counted_get)

    for cls in (Network, Simulation):
        deliver = cls.__dict__["deliver"]

        def counted_deliver(net, kind, payload, names, now, deliver=deliver):
            counts["block_entries"] += kind == "block"
            return deliver(net, kind, payload, names, now)
        monkeypatch.setattr(cls, "deliver", counted_deliver)

    # a view inserts a block either on its receipt (its parent is held) or
    # when it releases the block from its pending buffer
    views = {}
    receive_block = ClientView.receive_block

    def counted_receive(view, block, now, state=None):
        views[id(view)] = view
        blocks = view.tree.blocks
        counts["direct"] += block.id not in blocks and block.parent in blocks
        return receive_block(view, block, now, state)
    monkeypatch.setattr(ClientView, "receive_block", counted_receive)

    released = 0
    for cfg in budget_configs():
        counts.clear()
        views.clear()
        report = run(cfg)
        assert counts["digests"] == len(report.blocks) - 1, cfg.name
        assert counts["hmacs"] == counts["signed"] > 0, cfg.name
        inserted = sum(len(view.tree) - 1 for view in views.values())
        releases = inserted - counts["direct"]
        assert counts["lookups"] == counts["block_entries"] + releases, cfg.name
        released += releases
    # the budget covers the pending buffer
    assert released > 0


def test_runs_leave_no_cyclic_garbage():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for cfg in budget_configs():
            run(cfg)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
