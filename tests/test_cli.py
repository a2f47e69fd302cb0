"""Tests for the scenario runner and its output contracts."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scholarchain.cli import (
    ScenarioError,
    load_scenario,
    main,
    resolve_scenario_path,
    run_scenario,
)
from scholarchain.lifecycle import ProtocolConfig

BUNDLED = (
    "table3.json",
    "table4.json",
    "delta_sweep.json",
    "population.json",
    "protocol_publish.json",
    "protocol_revise.json",
    "protocol_retract.json",
    "market_demo.json",
)


# SHA-256 over each bundled scenario's output file names and bytes (see
# `outputs_digest`).  A change that should leave the outputs alone must keep
# these; a deliberate output change updates them and says why in CHANGES.md.
PINNED_OUTPUTS = {
    "table3.json":
        "1cebb4044a36fd83f3cfcdda068a0ecac6d4e44e7a2f5a6f27493966228c3c7c",
    "table4.json":
        "fb34e3543f2de418d3270aef016578b337b4ce279e312c45dbea768dd6014b00",
    "delta_sweep.json":
        "0d408117e56f62d8e704b3952e1b7bc21ba997060bf6a7aa511436df3adfc9a6",
    "population.json":
        "3524d2719ef463bac6d26639362e3ea93c9d7d638694fb04788707578e1fbdb8",
    "protocol_publish.json":
        "9ee408a73414a0bd005a14dd1a9cb36a8c3d18170db956fc7eaf12026982aa9e",
    "protocol_revise.json":
        "7da341eb008792f65d4f9ace613227b50a7c2951112837330e468a605ec23452",
    "protocol_retract.json":
        "fe063921d7fc9079a54359df7d59bcdc14637d850a943d1e1d1d1aafc7d7d97f",
    "market_demo.json":
        "1a51f0b8f7bb8effcf5c7582cb797f2929e8deec46c52034ce64b51beb0b3d0d",
}


def outputs_digest(paths) -> str:
    """SHA-256 over (name, length, bytes) of each file, in name order."""
    digest = hashlib.sha256()
    for path in sorted(map(Path, paths), key=lambda p: p.name):
        data = path.read_bytes()
        digest.update(f"{path.name}\n{len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


class TestScenarioLoading:
    def test_bundled_scenarios_resolve_anywhere(self):
        for name in BUNDLED:
            scenario = load_scenario(resolve_scenario_path(name))
            assert scenario["kind"]

    def test_missing_seed_is_a_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "game-analysis", "game": {"type": "commons2", "B": "2", "e": "1"}}')
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario(bad)
        assert main(["analyze", str(bad)]) == 2

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"kind": "game-analysis",\n  "seed": }')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(bad)

    def test_unknown_kind_rejected(self, tmp_path):
        bad = tmp_path / "odd.json"
        bad.write_text('{"kind": "lottery", "seed": 1}')
        with pytest.raises(ScenarioError, match="kind"):
            load_scenario(bad)

    def test_verb_kind_mismatch(self, tmp_path, capsys):
        assert main(["sweep", "table3.json", "--out-dir", str(tmp_path)]) == 2
        assert "cannot run" in capsys.readouterr().err

    def test_invalid_protocol_config_is_a_validation_error(self, tmp_path, capsys):
        scenario = load_scenario(resolve_scenario_path("protocol_publish.json"))
        scenario["config"]["market_liquidity"] = 0
        bad = tmp_path / "zero_liquidity.json"
        bad.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "protocol", str(bad)]) == 2
        assert "market liquidity must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_a_fixed_rule_in_the_scenario_config_is_refused(self, tmp_path, capsys):
        scenario = load_scenario(resolve_scenario_path("protocol_publish.json"))
        scenario["config"]["reward_multiple"] = 3
        bad = tmp_path / "triple_reward.json"
        bad.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "protocol", str(bad)]) == 2
        assert "field 'config': reward_multiple is fixed at 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, refused", [
        ("traders", {"u1": 10.5, "u2": 100}, "opening balance of 'u1'"),
        ("traders", {"u1": True, "u2": 100}, "opening balance of 'u1'"),
        ("traders", {"u1": 2**256, "u2": 100}, "opening balance of 'u1'"),
        ("initial_reserve", 200.9, "initial reserve"),
        ("initial_reserve", "7e2", "initial reserve"),
    ], ids=["fractional-balance", "bool-balance", "2**256-balance", "fractional-reserve",
            "string-reserve"])
    def test_market_opening_amounts_are_token_amounts(self, tmp_path, capsys,
                                                       field, value, refused):
        scenario = load_scenario(resolve_scenario_path("market_demo.json"))
        scenario[field] = value
        bad = tmp_path / "bad_market.json"
        bad.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "market", str(bad)]) == 2
        assert (f"error: field 'initial_reserve' or 'traders': {refused} must be "
                "an integer in [0, 2**256)" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("name, edit, refused", [
        ("market_demo.json", lambda s: s["trades"][0].update(shares="10"),
         "field 'trades[0].shares': must be a number"),
        ("market_demo.json", lambda s: s["trades"][1].pop("outcome"),
         "field 'trades[1].outcome': required"),
        ("market_demo.json", lambda s: s["trades"][2].update(user=5),
         "field 'trades[2].user': must be a string"),
        ("market_demo.json", lambda s: s.update(trades="x"),
         "field 'trades': must be a list"),
        ("protocol_publish.json", lambda s: s["comments"][1].pop("text"),
         "field 'comments[1].text': required"),
        ("protocol_publish.json", lambda s: s["trades"][0].pop("user"),
         "field 'trades[0].user': required"),
        ("protocol_publish.json", lambda s: s.update(users=["ada"]),
         "field 'users': must be an object"),
    ], ids=["market-string-shares", "market-no-outcome", "market-int-user",
            "market-string-trades", "protocol-no-comment-text", "protocol-no-trade-user",
            "protocol-user-list"])
    def test_a_malformed_scenario_field_is_named(self, tmp_path, capsys, name, edit,
                                                 refused):
        scenario = load_scenario(resolve_scenario_path(name))
        edit(scenario)
        bad = tmp_path / name
        bad.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        verb = "market" if name == "market_demo.json" else "protocol"
        assert main(["--out-dir", str(out), verb, str(bad)]) == 2
        assert f"error: {refused}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_a_value_the_chain_judges_is_still_a_rejection(self, tmp_path):
        scenario = load_scenario(resolve_scenario_path("protocol_publish.json"))
        scenario["trades"][0]["shares"] = "6"
        scenario["users"]["cy"] = -5
        bad = tmp_path / "judged.json"
        bad.write_text(json.dumps(scenario))
        assert main(["--out-dir", str(tmp_path), "protocol", str(bad)]) == 0
        rejected = read_json(tmp_path / "protocol_publish_summary.json")["rejected_txs"]
        assert [(r["kind"], r["error"]) for r in rejected] == [
            ("CREDIT", "amount must be a positive integer, got -5"),
            ("TRADE", "bad payload for TRADE: field 'shares' must be a number"),
            ("TRADE", "'cy' balance 0 cannot cover trade cost 2"),
        ]

    def test_no_partial_outputs_on_failure(self, tmp_path):
        bad = tmp_path / "half.json"
        bad.write_text(json.dumps({
            "kind": "market-demo", "seed": 1, "b": "100",
            "traders": {"u1": 1},
            "trades": [{"user": "u1", "outcome": "PUBLISH", "shares": 500}],
            "resolve": "PUBLISH",
        }))
        out = tmp_path / "out"
        assert main(["market", str(bad), "--out-dir", str(out)]) != 0
        assert not out.exists() or not list(out.iterdir())


class TestAnalyzeVerb:
    def test_biased_game_outputs(self, tmp_path):
        run_scenario("table3.json", str(tmp_path))
        rows = read_csv(tmp_path / "table3_analysis.csv")
        payoffs = {
            (r["row_action"], r["col_action"]): (r["row_value"], r["col_value"])
            for r in rows
            if r["record"] == "payoff"
        }
        assert payoffs[("C", "C")] == ("2", "2")
        assert payoffs[("C", "D")] == ("0", "3")
        assert payoffs[("D", "C")] == ("3", "0")
        assert payoffs[("D", "D")] == ("1", "1")
        pure = [
            (r["row_action"], r["col_action"])
            for r in rows
            if r["record"] == "pure_equilibrium"
        ]
        assert pure == [("D", "D")]
        assert not any(r["record"] == "mixed_equilibrium" for r in rows)

    def test_debiased_game_outputs(self, tmp_path):
        run_scenario("table4.json", str(tmp_path))
        rows = read_csv(tmp_path / "table4_analysis.csv")
        pure = [
            (r["row_action"], r["col_action"])
            for r in rows
            if r["record"] == "pure_equilibrium"
        ]
        assert pure == [("C", "C"), ("D", "D")]
        mixed = [r for r in rows if r["record"] == "mixed_equilibrium"]
        assert len(mixed) == 1
        assert mixed[0]["row_value"] == "1/2"
        assert mixed[0]["col_value"] == "1/2"


class TestSweepVerb:
    def test_flip_exactly_at_one_half(self, tmp_path):
        run_scenario("delta_sweep.json", str(tmp_path))
        rows = read_csv(tmp_path / "delta_sweep_sweep.csv")
        by_delta = {float(r["delta"]): r["sustained"] for r in rows}
        assert by_delta[0.45] == "false"
        assert by_delta[0.5] == "true"
        assert by_delta[0.9] == "true"
        # Grid endpoints 0 and 1 are not valid discount factors.
        assert 0.0 not in by_delta and 1.0 not in by_delta

    def test_population_runs_under_sweep_verb(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "sweep", "population.json"]) == 0
        summary = read_json(tmp_path / "population_summary.json")
        assert summary["seed"] == 42
        assert len(summary["discounted_payoffs"]) == 10


class TestProtocolVerb:
    def test_publish_path(self, tmp_path):
        run_scenario("protocol_publish.json", str(tmp_path))
        summary = read_json(tmp_path / "protocol_publish_summary.json")
        assert summary["final_article_state"] == "PUBLISHED"
        # initial - deposit + refund + reward, untouched by barred-author rule
        assert summary["balances"]["ada"] == 100 + 20
        assert summary["rejected_txs"] == []

    def test_revise_path_forfeits_deposit(self, tmp_path):
        run_scenario("protocol_revise.json", str(tmp_path))
        summary = read_json(tmp_path / "protocol_revise_summary.json")
        assert summary["final_article_state"] == "ACTIVE"
        assert summary["balances"]["ada"] == 90
        ledger = read_json(tmp_path / "protocol_revise_ledger.json")
        # 200 initial + 10 forfeited deposit + 4 trading income - 5 paid to
        # the correct REVISE prediction.
        assert ledger["platform_reserve"] == 209

    def test_retraction_path_is_terminal(self, tmp_path):
        run_scenario("protocol_retract.json", str(tmp_path))
        summary = read_json(tmp_path / "protocol_retract_summary.json")
        assert summary["final_article_state"] == "RETRACTED"
        # Challenger got the stake back plus an equal bounty.
        assert summary["balances"]["cy"] == 100 + 5

    def test_chain_verifies_and_is_deterministic(self, tmp_path):
        run_scenario("protocol_publish.json", str(tmp_path / "a"))
        run_scenario("protocol_publish.json", str(tmp_path / "b"))
        chain_a = (tmp_path / "a" / "protocol_publish_chain.jsonl").read_bytes()
        chain_b = (tmp_path / "b" / "protocol_publish_chain.jsonl").read_bytes()
        assert chain_a == chain_b
        assert main(["verify", str(tmp_path / "a" / "protocol_publish_chain.jsonl")]) == 0

    def test_verify_rejects_tampering(self, tmp_path, capsys):
        run_scenario("protocol_publish.json", str(tmp_path))
        chain_file = tmp_path / "protocol_publish_chain.jsonl"
        data = bytearray(chain_file.read_bytes())
        data[len(data) // 2] ^= 0x01
        chain_file.write_bytes(bytes(data))
        assert main(["verify", str(chain_file)]) == 1
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["1e400", "-1e999", "Infinity"])
    def test_verify_fails_a_non_finite_number_at_parse(self, tmp_path, capsys, number):
        run_scenario("protocol_publish.json", str(tmp_path))
        chain_file = tmp_path / "protocol_publish_chain.jsonl"
        text = chain_file.read_text(encoding="utf-8")
        assert '"amount":100}' in text
        chain_file.write_text(text.replace('"amount":100}', f'"amount":{number}}}', 1),
                              encoding="utf-8")
        assert main(["verify", str(chain_file)]) == 1
        assert "FAILED at parse" in capsys.readouterr().err

    def test_verify_fails_bytes_that_are_not_utf8_at_parse(self, tmp_path, capsys):
        run_scenario("protocol_publish.json", str(tmp_path))
        chain_file = tmp_path / "protocol_publish_chain.jsonl"
        chain_file.write_bytes(b"\xff" + chain_file.read_bytes())
        assert main(["verify", str(chain_file)]) == 1
        assert "FAILED at parse" in capsys.readouterr().err

    @pytest.mark.parametrize("chain_name, error", [
        ("protocol_publish_chain.jsonl",
         "genesis descriptor {dir}/protocol_publish_genesis.json is missing"),
        ("copy.jsonl", "{dir}/copy.jsonl is not named *_chain.jsonl; "
                       "name its genesis descriptor with --genesis"),
        ("dir_chain.jsonl.d/x_chain.jsonl",
         "genesis descriptor {dir}/dir_chain.jsonl.d/x_genesis.json is missing"),
    ], ids=["sibling", "other-name", "suffix-in-directory"])
    def test_verify_names_a_missing_genesis(self, tmp_path, capsys, chain_name, error):
        # The default descriptor is the chain file's sibling, named from the
        # file name alone; a chain file of another name needs --genesis.
        run_scenario("protocol_publish.json", str(tmp_path))
        (tmp_path / "protocol_publish_genesis.json").unlink()
        chain_file = tmp_path / chain_name
        chain_file.parent.mkdir(exist_ok=True)
        (tmp_path / "protocol_publish_chain.jsonl").rename(chain_file)
        assert main(["verify", str(chain_file)]) == 2
        assert f"error: {error.format(dir=tmp_path)}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("descriptor", [
        "not json", '{"config": {"bogus": 1}}', "[1]",
        '{"config": {"initial_reserve": -1, "peers": ["p1"]}}',
    ], ids=["not-json", "unknown-field", "json-list", "refused-config"])
    def test_verify_names_a_malformed_genesis(self, tmp_path, capsys, descriptor):
        run_scenario("protocol_publish.json", str(tmp_path))
        genesis_file = tmp_path / "protocol_publish_genesis.json"
        genesis_file.write_text(descriptor, encoding="utf-8")
        assert main(["verify", str(tmp_path / "protocol_publish_chain.jsonl")]) == 2
        assert f"error: genesis descriptor {genesis_file}: " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("min_panel", 2), ("min_panel", 3.0), ("authors_may_trade", 0),
    ])
    def test_verify_refuses_a_descriptor_that_changes_a_fixed_rule(
            self, tmp_path, capsys, field, value):
        run_scenario("protocol_publish.json", str(tmp_path))
        genesis_file = tmp_path / "protocol_publish_genesis.json"
        descriptor = read_json(genesis_file)
        descriptor["config"][field] = value
        genesis_file.write_text(json.dumps(descriptor), encoding="utf-8")
        assert main(["verify", str(tmp_path / "protocol_publish_chain.jsonl")]) == 2
        assert (f"error: genesis descriptor {genesis_file}: {field} is fixed at"
                in capsys.readouterr().err)

    def test_verify_fails_a_nonempty_signature_at_parse(self, tmp_path, capsys):
        # The record is re-sealed and every later block re-linked, so only the
        # signature itself can make the chain fail.
        run_scenario("protocol_publish.json", str(tmp_path))
        chain_file = tmp_path / "protocol_publish_chain.jsonl"
        blocks = [json.loads(line) for line in chain_file.read_text().splitlines()]
        blocks[0]["txs"][0]["signature"] = "x"
        for i, block in enumerate(blocks):
            if i:
                block["prevHash"] = blocks[i - 1]["blockHash"]
            content = {k: v for k, v in block.items() if k != "blockHash"}
            block["blockHash"] = hashlib.sha256(json.dumps(
                content, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        chain_file.write_text("".join(json.dumps(b, separators=(",", ":")) + "\n"
                                      for b in blocks))
        assert main(["verify", str(chain_file)]) == 1
        assert "FAILED at parse: tx signature must be empty" in capsys.readouterr().err


class TestMarketVerb:
    def test_bundled_demo_costs(self, tmp_path):
        run_scenario("market_demo.json", str(tmp_path))
        summary = read_json(tmp_path / "market_demo_summary.json")
        first = summary["token_costs"][0]
        assert first == {"user": "u1", "outcome": "PUBLISH", "shares": 10, "cost": 6}
        events = (tmp_path / "market_demo_events.jsonl").read_text().splitlines()
        assert len(events) == 4  # three trades plus the resolution

    def test_seed_override_changes_summary(self, tmp_path):
        main(["--seed", "9", "--out-dir", str(tmp_path), "market", "market_demo.json"])
        assert read_json(tmp_path / "market_demo_summary.json")["seed"] == 9


class TestParallel:
    def test_parallel_matches_sequential(self, tmp_path):
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["--out-dir", str(seq), "analyze", "table3.json", "table4.json"]) == 0
        assert main([
            "--out-dir", str(par), "--parallel", "analyze", "table3.json", "table4.json",
        ]) == 0
        for name in ("table3_analysis.csv", "table4_analysis.csv"):
            assert (seq / name).read_bytes() == (par / name).read_bytes()


class TestBundledScenarios:
    def test_every_bundled_scenario_runs_quickly(self, tmp_path):
        import time

        start = time.perf_counter()
        written = []
        for name in BUNDLED:
            written += run_scenario(name, str(tmp_path))
        assert time.perf_counter() - start < 60
        assert all(Path(p).stat().st_size > 0 for p in written)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_outputs_are_byte_identical_across_runs(self, tmp_path, name):
        first = run_scenario(name, str(tmp_path / "one"))
        second = run_scenario(name, str(tmp_path / "two"))
        for a, b in zip(first, second):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("name", BUNDLED)
    def test_outputs_match_pinned_digest(self, tmp_path, name):
        assert outputs_digest(run_scenario(name, str(tmp_path))) == PINNED_OUTPUTS[name]

    def test_unchanged_outputs_are_left_untouched(self, tmp_path):
        paths = run_scenario("market_demo.json", str(tmp_path))
        old = 10**9  # an mtime no write of this run can give
        for p in paths:
            os.utime(p, ns=(old, old))
        stamps = [(os.stat(p).st_ino, old) for p in paths]
        assert run_scenario("market_demo.json", str(tmp_path)) == paths
        assert [(os.stat(p).st_ino, os.stat(p).st_mtime_ns) for p in paths] == stamps
        # Another seed changes the summary, and the new bytes are written.
        assert run_scenario("market_demo.json", str(tmp_path), 9) == paths
        fresh = run_scenario("market_demo.json", str(tmp_path / "fresh"), 9)
        assert [Path(p).read_bytes() for p in paths] == [Path(p).read_bytes() for p in fresh]
        summary = str(tmp_path / "market_demo_summary.json")
        assert os.stat(summary).st_mtime_ns != old

    def test_the_reader_reads_back_every_genesis_config(self, tmp_path):
        for name in BUNDLED:
            run_scenario(name, str(tmp_path))
        files = sorted(tmp_path.glob("*_genesis.json"))
        assert len(files) == 3
        files.append(Path(__file__).parent / "data" / "rejections_genesis.json")
        for path in files:
            config = read_json(path)["config"]
            assert ProtocolConfig.from_canonical(config).to_canonical() == config, path

    def test_verify_with_explicit_genesis(self, tmp_path):
        run_scenario("protocol_revise.json", str(tmp_path))
        assert main([
            "verify", str(tmp_path / "protocol_revise_chain.jsonl"),
            "--genesis", str(tmp_path / "protocol_revise_genesis.json"),
        ]) == 0


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "scholarchain", "--out-dir", str(tmp_path),
             "analyze", "table3.json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "table3_analysis.csv").exists()


# The package root's public names, as they stood before it became lazy.
PUBLIC_NAMES = (
    "Action", "Article", "ArticleState", "Block", "Chain", "CommonsParams",
    "ContentMetadata", "EquilibriumSet", "Market", "PayoffMatrix2x2", "PeerSet",
    "PopulationConfig", "ProtocolConfig", "ProtocolState", "PublicationParams",
    "StrategyAutomaton", "TokenLedger", "Transaction", "TxKind", "TxPool",
    "all_c", "all_d", "build_commons_payoff", "build_publication_game",
    "closed_form_payoff", "content_hash", "cooperation_sustained",
    "cooperation_threshold_population", "discounted_average_payoff",
    "dominant_action", "equilibrium_set", "game_from_json", "grim",
    "mixed_equilibrium", "open_market", "play_match", "price", "produce_block",
    "pure_equilibria", "reputation_grim", "resolve", "run_population",
    "state_hash", "submit_tx", "trade", "two_player_commons_game", "verify_chain",
)

# Modules that only the game-theory renderers need.
GAME_THEORY_MODULES = (
    "scholarchain.games", "scholarchain.strategies", "fractions", "decimal",
)


class TestPackageRoot:
    def test_public_names_resolve_to_their_defining_module(self):
        import scholarchain

        assert scholarchain.__all__ == list(PUBLIC_NAMES)
        for name in PUBLIC_NAMES:
            obj = getattr(scholarchain, name)
            assert obj.__module__.startswith("scholarchain."), name
            assert obj is getattr(sys.modules[obj.__module__], name), name
        with pytest.raises(AttributeError):
            scholarchain.no_such_name

    def test_chain_verbs_do_not_load_game_theory(self, tmp_path):
        # A fresh interpreter, since this process has loaded every module.
        script = (
            "import sys\n"
            "from scholarchain import cli\n"
            f"out = {str(tmp_path)!r}\n"
            "assert cli.main(['--out-dir', out, 'protocol', 'protocol_publish.json']) == 0\n"
            "assert cli.main(['verify', out + '/protocol_publish_chain.jsonl']) == 0\n"
            f"print([m for m in {GAME_THEORY_MODULES!r} if m in sys.modules])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
