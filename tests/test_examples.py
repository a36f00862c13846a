"""The shipped examples run: every ``examples/*.py`` script and the README's
request-file walkthrough (``repro client`` over ``examples/service``)."""

import json
import subprocess
import sys
from pathlib import Path

from tests.helpers import src_env

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_every_example_and_the_request_file_run(capsys):
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert scripts
    for script in scripts:
        completed = subprocess.run([sys.executable, str(script)], env=src_env(),
                                   capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, (script.name, completed.stderr)
        assert completed.stdout.strip(), script.name

    from repro.cli import main

    service = EXAMPLES / "service"
    status = main(["client", str(service / "requests.jsonl"),
                   "--db", f"demo={service / 'demo_db.json'}"])
    responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert status == 0
    requests = [line for line in (service / "requests.jsonl").read_text().splitlines()
                if line.strip() and not line.startswith("#")]
    assert len(responses) == len(requests)
    assert all(response["ok"] for response in responses)
