"""Golden digests of run_prime reports: performance work must leave every report unchanged.

tests/data/report_digests.json holds the SHA-256 of json.dumps(run_prime(p, seed))
for p in {3, 5, 7, 11, 13} and seeds {0, 1}, and for p in {17, 19, 23} with seed 0.
The larger primes reach what the small ones do not: trials = 3 in the
extension axioms, oracle_trials = 5 and the rank route of
extensions.class_independence.  A change that alters any report, down to a
check's detail text or a random draw, fails here; a deliberate report
change regenerates the file in the same commit.  Together the thirteen
reports take about 3.5 s.

tests/data/cli_digests.json holds the SHA-256 of the whole stdout of the
CLI commands that print cochains on the wedge bases, keyed by their
arguments: `wittcoh cocycles --which all` at p = 5, 7, 13 and 103 and two
`wittcoh extension` tables at p = 7.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wittcoh.cli import main
from wittcoh.verify import run_prime

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = json.loads((DATA / "report_digests.json").read_text())
CLI_DIGESTS = json.loads((DATA / "cli_digests.json").read_text())


@pytest.mark.parametrize("key", sorted(DIGESTS, key=lambda k: tuple(map(int, k.split(":")))))
def test_report_digest(key):
    p, seed = map(int, key.split(":"))
    report = json.dumps(run_prime(p, seed))
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[key]


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS))
def test_cli_output_digest(argv, capsys):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_DIGESTS[argv]
