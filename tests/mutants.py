"""A standing mutation check: each mutant changes one exact text in
`src/scholarchain`, and the test files listed with it must then fail.

    python tests/mutants.py

It needs only the standard library and the test dependencies (pytest and
hypothesis), and pytest does not collect it, since its name does not start
with `test_`.  Each mutant is applied to a copy of `src/` in a temporary
directory, and its test files run from this checkout with `PYTHONPATH`
naming that copy; the tests themselves stay here, because some of them read
`demos/` and `README.md` from the checkout.

One line per mutant: `killed`, `survived`, `stale` (the text does not
occur exactly once) or `error`, then the score per module.  The exit status
is 1 on a stale mutant, on an error, on a survivor that is not marked as
known, and on a marked survivor that is now killed, whose mark must go.  A
known survivor's mark cites the FOUND line of CHANGES.md that explains it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a mutant that hangs its tests this long counts as killed


class Mutant(NamedTuple):
    name: str
    file: str  # under src/scholarchain
    text: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # files under tests/ expected to kill it
    known_survivor: Optional[str] = None  # the FOUND that explains why it survives


MUTANTS = (
    # The paper's incentive rules.
    Mutant("deposit-floor-inclusive", "lifecycle.py",
           'deposit <= FIXED_RULES["min_review_deposit"]',
           'deposit < FIXED_RULES["min_review_deposit"]', ("test_lifecycle.py",)),
    Mutant("reward-multiple-3", "lifecycle.py",
           '"reward_multiple": 2,', '"reward_multiple": 3,', ("test_cli.py",)),
    Mutant("authors-may-trade", "lifecycle.py",
           "if user_id in article.owners:", "if False:", ("test_golden_chain.py",)),
    Mutant("payout-rounds", "market.py",
           "owed[uid] = math.floor(shares)", "owed[uid] = round(shares)",
           ("test_market.py",)),
    # The one-open-dispute rule, the panel bound and a verify reason.
    Mutant("objection-refusal-deleted", "lifecycle.py",
           "        if self.open_dispute(article_hash) is not None:\n"
           '            raise LifecycleError("article already has an open dispute")\n',
           "", ("test_lifecycle.py",)),
    Mutant("open-dispute-ignores-resolution", "lifecycle.py",
           "return dispute if dispute.resolution is None else None", "return dispute",
           ("test_lifecycle.py",)),
    Mutant("open-dispute-always-none", "lifecycle.py",
           'an objection is refused while an earlier one is open."""\n',
           'an objection is refused while an earlier one is open."""\n'
           "        return None\n", ("test_lifecycle.py",)),
    Mutant("panel-bound-off-by-one", "lifecycle.py",
           'if len(panel) < FIXED_RULES["min_panel"]:',
           'if len(panel) < FIXED_RULES["min_panel"] - 1:', ("test_lifecycle.py",)),
    Mutant("open-dispute-without-article-check", "lifecycle.py",
           "if dispute is None or dispute.article_hash != article_hash:",
           "if dispute is None:", ("test_state_digest.py",)),
    Mutant("unknown-peer-reason-appended", "netchain.py",
           '"approval from unknown peer")', '"approval from unknown peerX")',
           ("test_netchain.py",)),
    # An exact payoff rounded to a nearby fraction.
    Mutant("closed-form-limit-denominator", "strategies.py",
           "return Fraction(*_discounted_sum(payoffs, seen[(sa, sb)], d, payoffs))",
           "return Fraction(*_discounted_sum(payoffs, seen[(sa, sb)], d, payoffs))"
           ".limit_denominator(2**60)", ("test_strategies.py",)),
    # The genesis config and its peers.
    Mutant("config-skips-peer-rule", "lifecycle.py",
           "PeerSet(peers).peers if peers else ()", "tuple(peers)",
           ("test_lifecycle.py",)),
    Mutant("peer-set-allows-duplicates", "lifecycle.py",
           "        if len(set(peers)) != len(peers):\n"
           '            raise ChainError("duplicate peer ids")\n', "",
           ("test_netchain.py",)),
    Mutant("peer-set-skips-json-carry", "lifecycle.py",
           "p and _json_carries(p) for p in peers", "p for p in peers",
           ("test_netchain.py",)),
    Mutant("config-make-unchecked", "lifecycle.py",
           "    _make = _checked_make\n\n    def __new__(cls, market_liquidity",
           "\n    def __new__(cls, market_liquidity", ("test_values.py",)),
    Mutant("config-deepcopy-copies", "lifecycle.py",
           "return self  # a config never changes",
           "return copy.copy(self)  # a config never changes", ("test_lifecycle.py",)),
    # A boundary that only a demo's printed verdict shows.
    Mutant("sustained-boundary-open", "strategies.py",
           "(temptation - punishment) >= temptation - reward",
           "(temptation - punishment) > temptation - reward", ("test_demos.py",)),
    # The one digest path: every section fills from its written keys.
    Mutant("section-keeps-gone-key", "market.py",
           "                elif kept:\n                    del keys[i], fragments[i]\n", "",
           ("test_state_digest.py",)),
    Mutant("section-slot-never-kept", "market.py",
           "kept = i < len(keys) and keys[i] == key", "kept = False",
           ("test_state_digest.py",)),
    Mutant("accounts-section-unkeyed", "lifecycle.py",
           "Section(led.accounts, led.written, _encode, keyed=True)",
           "Section(led.accounts, led.written, _encode)", ("test_state_digest.py",)),
    Mutant("first-digest-forgets-disputes", "lifecycle.py",
           'Section(self.disputes, w["disputes"], _encode)',
           "Section(self.disputes, {}, _encode)", ("test_state_digest.py",)),
    # The binary cost function, the kept cost and a buy's one ledger move.
    # Not a mutant: `exp(y - m) + exp(x - m)`, since IEEE addition commutes.
    Mutant("lmsr-max-shift-dropped", "market.py",
           "m = x if x >= y else y", "m = x", ("test_market.py",)),
    Mutant("kept-cost-ignores-writes", "market.py",
           "kept = costed_b == b and costed == book", "kept = True", ("test_market.py",)),
    Mutant("debit-unwritten", "ledger.py",
           "        self.written[user_id] = None\n"
           "        acct.balance -= amount\n"
           "        self.platform_reserve += amount\n",
           "        acct.balance -= amount\n"
           "        self.platform_reserve += amount\n", ("test_ledger.py",)),
    Mutant("debit-skips-reserve", "ledger.py",
           "        acct.balance -= amount\n        self.platform_reserve += amount\n",
           "        acct.balance -= amount\n", ("test_ledger.py",)),
)


def run(mutant: Mutant, scratch: Path) -> str:
    """`killed`, `survived`, `stale` or `error` (pytest exited neither 0 nor 1,
    as on a usage error) for one mutant."""
    source = (ROOT / "src" / "scholarchain" / mutant.file).read_text(encoding="utf-8")
    if source.count(mutant.text) != 1:
        return "stale"
    copy = scratch / mutant.name
    shutil.copytree(ROOT / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (copy / "src" / "scholarchain" / mutant.file).write_text(
        source.replace(mutant.text, mutant.replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *(f"tests/{name}" for name in mutant.tests)]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed"
    finally:
        shutil.rmtree(copy)
    if result.returncode not in (0, 1):  # pytest could not run the tests at all
        sys.stdout.write(result.stdout.decode(errors="replace")[-2000:])
        return "error"
    return "survived" if result.returncode == 0 else "killed"


def main() -> int:
    failed = False
    killed, total = Counter(), Counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        for mutant in MUTANTS:
            outcome = run(mutant, Path(scratch))
            note = ""
            if outcome in ("stale", "error"):
                failed = True
            elif outcome == "survived" and not mutant.known_survivor:
                failed = True
            elif outcome == "survived":
                note = f"  (known: {mutant.known_survivor})"
            elif mutant.known_survivor:
                failed, note = True, "  (marked as a known survivor: remove the mark)"
            print(f"{outcome:8}  {mutant.name}  [{mutant.file}]{note}", flush=True)
            if outcome in ("killed", "survived"):
                total[mutant.file] += 1
                killed[mutant.file] += outcome == "killed"
    print("score per module:")
    for module in sorted(total):
        print(f"  {module}: {killed[module]}/{total[module]} killed")
    print(f"  all: {sum(killed.values())}/{sum(total.values())} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
