"""In-memory span tracer that wraps the program's public functions.

Spans are recorded from the benchmark's own files: `wrap_function` and
`wrap_method` replace a function or method with a wrapper that records
(name, start, end, parent, tag), and `uninstall` restores the originals.
Nothing in the program is edited.  A function that no longer exists is skipped, and the metrics
derived from it are then absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans kept in memory: a list of [name, start, end, parent, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.paused = False

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, tag=None) -> None:
        span = self.spans[index]
        span[2] = _clock()
        span[4] = tag
        self._stack.pop()

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside record no spans: the benchmark's own checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def span(self, name: str):
        """Context manager recording one span from the benchmark's own code."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.index = tracer.open(name)
                return self

            def __exit__(self, *exc):
                tracer.close(self.index, "raised" if exc[0] else None)
                return False

        return _Span()

    # -- patching ------------------------------------------------------------

    def _wrapper(self, original, name, name_of=None, tag_of=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            index = tracer.open(name_of(args) if name_of else name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(index, "raised")
                raise
            tracer.close(index, tag_of(args, result) if tag_of else None)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap_function(self, module, attr, name, name_of=None, tag_of=None):
        """Wrap a module-level function everywhere the package binds it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrapper(original, name, name_of, tag_of)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("scholarchain") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        self.installed.add(name)

    def wrap_method(self, cls, attr, name, name_of=None, tag_of=None):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, name_of, tag_of))
        self.installed.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, tag in self.spans:
                handle.write(json.dumps([name, start, end, parent, tag]) + "\n")


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the per-layer metrics name."""
    from scholarchain import cli, games, ledger, lifecycle, market, netchain, strategies

    tracer.wrap_function(netchain, "submit_tx", "netchain.submit_tx")
    tracer.wrap_function(
        netchain, "produce_block", "netchain.produce_block",
        tag_of=lambda args, result: "committed" if result.committed else "no_quorum",
    )
    tracer.wrap_function(
        netchain, "apply_tx", "netchain.apply_tx",
        name_of=lambda args: "netchain.apply_tx." + args[1].kind.value,
    )
    tracer.wrap_function(netchain, "state_hash", "netchain.state_hash")
    tracer.wrap_function(netchain, "export_chain", "netchain.export_chain")
    tracer.wrap_function(netchain, "import_chain", "netchain.import_chain")
    tracer.wrap_function(
        netchain, "verify_chain", "netchain.verify_chain",
        tag_of=lambda args, result: len(args[0]),
    )
    for attr in ("clone", "to_canonical", "conclude_review", "raise_objection"):
        tracer.wrap_method(lifecycle.ProtocolState, attr, f"lifecycle.{attr}")
    for attr in ("credit", "escrow", "resolve_escrow"):
        tracer.wrap_method(ledger.TokenLedger, attr, f"ledger.{attr}")
    tracer.wrap_function(market, "trade", "market.trade")
    tracer.wrap_function(market, "resolve", "market.resolve")
    tracer.wrap_function(
        strategies, "run_population", "strategies.run_population",
        tag_of=lambda args, report: len(report.rows),
    )
    tracer.wrap_function(strategies, "closed_form_payoff", "strategies.closed_form_payoff")
    tracer.wrap_function(games, "equilibrium_set", "games.equilibrium_set")
    tracer.wrap_function(
        cli, "run_scenario", "cli.run_scenario",
        name_of=lambda args: "cli.run_scenario." + str(args[0]).rsplit("/", 1)[-1]
        .removesuffix(".json"),
    )


APPLY_KINDS = (
    "CREDIT", "SUBMIT_ARTICLE", "COMMENT", "START_REVIEW", "TRADE",
    "CONCLUDE_REVIEW", "RAISE_OBJECTION", "RESOLVE_DISPUTE", "CLAIM_ARTICLE",
)
SCENARIOS = (
    "table3", "table4", "delta_sweep", "population",
    "protocol_publish", "protocol_revise", "protocol_retract", "market_demo",
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the recorded spans: {name: (value, unit)}.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap in this single-threaded run.
    """
    spans = tracer.spans
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls = defaultdict(int)
    total = defaultdict(float)
    for name, start, end, _, _ in spans:
        calls[name] += 1
        total[name] += end - start

    out: dict[str, tuple[float, str]] = {}

    def per_call_us(span_name, metric):
        if calls[span_name]:
            out[metric] = (total[span_name] / calls[span_name] * 1e6, "us")

    # produce_block split, over the calls that committed a block.
    blocks = [i for i, s in enumerate(spans)
              if s[0] == "netchain.produce_block" and s[4] == "committed"]
    if blocks:
        block_set = set(blocks)
        split = defaultdict(float)
        counts = defaultdict(int)
        for name, start, end, parent, _ in spans:
            if parent in block_set:
                part = ("clone" if name == "lifecycle.clone" else
                        "apply" if name.startswith("netchain.apply_tx.") else
                        "digest" if name == "netchain.state_hash" else "other")
                split[part] += end - start
                counts[part] += 1
        nb = len(blocks)
        block_time = sum(spans[i][2] - spans[i][1] for i in blocks)
        self_time = sum(spans[i][2] - spans[i][1] - child_time[i] for i in blocks)
        out["netchain.produce_block.ms_per_block"] = (block_time / nb * 1e3, "ms")
        if "lifecycle.clone" in tracer.installed:
            out["netchain.produce_block.clone_calls_per_block"] = (counts["clone"] / nb, "count")
            out["netchain.produce_block.clone_ms_per_block"] = (split["clone"] / nb * 1e3, "ms")
        out["netchain.produce_block.apply_calls_per_block"] = (counts["apply"] / nb, "count")
        out["netchain.produce_block.apply_ms_per_block"] = (split["apply"] / nb * 1e3, "ms")
        if "netchain.state_hash" in tracer.installed:
            out["netchain.produce_block.digest_calls_per_block"] = (counts["digest"] / nb, "count")
            out["netchain.produce_block.digest_ms_per_block"] = (split["digest"] / nb * 1e3, "ms")
        # Self time includes any child span not named above.
        out["netchain.produce_block.self_ms_per_block"] = (
            (self_time + split["other"]) / nb * 1e3, "ms")

    per_call_us("netchain.submit_tx", "netchain.submit_tx.us_per_call")
    for kind in APPLY_KINDS:
        per_call_us(f"netchain.apply_tx.{kind}", f"netchain.apply_tx.{kind}.us_per_call")
    per_call_us("netchain.state_hash", "netchain.state_hash.us_per_call")
    if calls["netchain.export_chain"]:
        out["netchain.export_chain.ms"] = (
            total["netchain.export_chain"] / calls["netchain.export_chain"] * 1e3, "ms")
    if calls["netchain.import_chain"]:
        out["netchain.import_chain.ms"] = (
            total["netchain.import_chain"] / calls["netchain.import_chain"] * 1e3, "ms")

    verifies = [i for i, s in enumerate(spans) if s[0] == "netchain.verify_chain"]
    verified_blocks = sum(spans[i][4] or 0 for i in verifies)
    if verifies and verified_blocks:
        vset = set(verifies)
        apply_t = digest_t = 0.0
        for name, start, end, parent, _ in spans:
            if parent in vset:
                if name.startswith("netchain.apply_tx."):
                    apply_t += end - start
                elif name == "netchain.state_hash":
                    digest_t += end - start
        vtime = sum(spans[i][2] - spans[i][1] for i in verifies)
        out["netchain.verify_chain.ms_per_block"] = (vtime / verified_blocks * 1e3, "ms")
        out["netchain.verify_chain.apply_ms_per_block"] = (apply_t / verified_blocks * 1e3, "ms")
        if "netchain.state_hash" in tracer.installed:
            out["netchain.verify_chain.digest_ms_per_block"] = (
                digest_t / verified_blocks * 1e3, "ms")

    for attr in ("clone", "to_canonical", "conclude_review", "raise_objection"):
        per_call_us(f"lifecycle.{attr}", f"lifecycle.{attr}.us_per_call")
    for attr in ("credit", "escrow", "resolve_escrow"):
        per_call_us(f"ledger.{attr}", f"ledger.{attr}.us_per_call")
    per_call_us("market.trade", "market.trade.us_per_call")
    per_call_us("market.resolve", "market.resolve.us_per_call")

    rows = sum(s[4] or 0 for s in spans if s[0] == "strategies.run_population")
    if rows:
        out["strategies.run_population.us_per_row"] = (
            total["strategies.run_population"] / rows * 1e6, "us")
    per_call_us("strategies.closed_form_payoff", "strategies.closed_form_payoff.us_per_call")
    per_call_us("games.equilibrium_set", "games.equilibrium_set.us_per_call")

    for scenario in SCENARIOS:
        name = f"cli.run_scenario.{scenario}"
        if calls[name]:
            out[f"{name}.ms"] = (total[name] / calls[name] * 1e3, "ms")
    if calls["cli.verify"]:
        out["cli.verify.ms_per_chain"] = (total["cli.verify"] / calls["cli.verify"] * 1e3, "ms")
    return out
