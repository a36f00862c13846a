"""Tests for the query/order/FD text parser and the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_serve_parser
from repro.cli import main as cli_main
from repro.core.parser import parse_fds, parse_order, parse_query
from repro.exceptions import FunctionalDependencyError, QueryStructureError
from repro.workloads import paper_queries as pq
from tests.helpers import src_env


class TestParseQuery:
    def test_two_path(self):
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        assert query.head == ("x", "y", "z")
        assert [a.relation for a in query.atoms] == ["R", "S"]
        assert query == pq.TWO_PATH

    def test_boolean_query(self):
        query = parse_query("Q() :- R(x, y)")
        assert query.is_boolean

    def test_projection(self):
        query = parse_query("Answer(x, z) :- R(x, y), S(y, z)")
        assert query.name == "Answer"
        assert query.existential_variables == frozenset({"y"})

    def test_unary_atoms_and_whitespace(self):
        query = parse_query("  Q( x )  :-  R( x ) ,S(x,  y)  ")
        assert query.head == ("x",)
        assert query.atoms[0].variables == ("x",)

    def test_explicit_name_overrides(self):
        assert parse_query("Q(x) :- R(x)", name="Renamed").name == "Renamed"

    @pytest.mark.parametrize(
        "bad",
        [
            "Q(x) R(x)",                 # missing :-
            "Q(x :- R(x)",               # malformed head
            "Q(x) :- ",                  # empty body
            "Q(x) :- R(x) S(x)",         # missing comma
            "Q(x) :- R(x,)",             # dangling comma variable
            "Q(1x) :- R(1x)",            # invalid identifier
        ],
    )
    def test_malformed_queries_rejected(self, bad):
        with pytest.raises(QueryStructureError):
            parse_query(bad)

    def test_head_variable_missing_from_body_rejected(self):
        with pytest.raises(QueryStructureError):
            parse_query("Q(w) :- R(x, y)")


class TestParseOrder:
    def test_simple_order(self):
        order = parse_order("x, z, y")
        assert order.variables == ("x", "z", "y")
        assert not order.descending

    def test_descending_markers(self):
        order = parse_order("cases desc, city, age descending")
        assert order.variables == ("cases", "city", "age")
        assert set(order.descending) == {"cases", "age"}

    def test_empty_order(self):
        assert len(parse_order("")) == 0

    @pytest.mark.parametrize("bad", ["x y z", "x, 1y", "x,, y", "x desc asc"])
    def test_malformed_orders_rejected(self, bad):
        with pytest.raises(QueryStructureError):
            parse_order(bad)


class TestParseFDs:
    def test_arrow_styles(self):
        fds = parse_fds(["R: x -> y", "S: y → z"])
        assert len(fds) == 2

    def test_malformed_fd_rejected(self):
        with pytest.raises(FunctionalDependencyError):
            parse_fds(["R x -> y"])


class TestCLI:
    def test_tractable_combination_exits_zero(self, capsys):
        code = cli_main(["Q(x, y) :- R(x, y, z)", "--order", "x, y"])
        output = capsys.readouterr().out
        assert code == 0
        assert "tractable" in output and "Theorem" in output

    def test_intractable_combination_exits_one(self, capsys):
        code = cli_main(["Q(x, y, z) :- R(x, y), S(y, z)", "--order", "x, z, y", "--explain"])
        output = capsys.readouterr().out
        assert code == 1
        assert "disruptive trio" in output
        assert "sparseBMM" in output

    def test_fd_flag_changes_verdict(self, capsys):
        without = cli_main(["Q(x, z) :- R(x, y), S(y, z)"])
        with_fd = cli_main(["Q(x, z) :- R(x, y), S(y, z)", "--fd", "S: y -> z"])
        assert without == 1 and with_fd == 0

    def test_order_echoed_in_output(self, capsys):
        cli_main(["Q(x, y, z) :- R(x, y), S(y, z)", "--order", "x, y, z"])
        assert "⟨x, y, z⟩" in capsys.readouterr().out

    def test_explicit_classify_subcommand(self, capsys):
        code = cli_main(["classify", "Q(x, y) :- R(x, y)", "--order", "x, y"])
        assert code == 0
        assert "tractable" in capsys.readouterr().out


class TestCLIVersionAndUsage:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    @pytest.mark.parametrize("subcommand", [[], ["serve"], ["client"]])
    def test_version_flag_on_subcommands(self, subcommand, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            cli_main(subcommand + ["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_missing_query_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_malformed_query_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["this is not a query"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() and ":-" in err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["Q(x) :- R(x)", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_client_without_target_is_a_usage_error(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["client", str(requests)])
        assert excinfo.value.code == 2
        assert "--url" in capsys.readouterr().err

    def test_client_url_and_db_together_is_a_usage_error(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                ["client", str(requests), "--url", "http://127.0.0.1:1",
                 "--db", "demo=whatever.json"]
            )
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_serve_bad_db_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--db", "missing-equals-sign"])
        assert excinfo.value.code == 2
        assert "NAME=PATH" in capsys.readouterr().err

    def test_serve_missing_db_file_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--db", "demo=/does/not/exist.json"])
        assert excinfo.value.code == 2

    def test_serve_has_one_http_front_end(self, capsys):
        """``--io-loop`` keeps parsing the benchmark's serve command, but the
        thread-per-connection front-end stays gone: importing the service
        loads no module that defines the stdlib's ``ThreadingHTTPServer``."""
        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args(["--io-loop", "threaded"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'threaded'" in capsys.readouterr().err

        spec = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "spec.json"
        command = json.loads(spec.read_text())["serve_command"]
        args = build_serve_parser().parse_args(command[command.index("serve") + 1:])
        assert args.io_loop == "event"

        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.service; print(any(hasattr(module, "
             "'ThreadingHTTPServer') for module in list(sys.modules.values())))"],
            env=src_env(), capture_output=True, text=True, check=True, timeout=120,
        )
        assert loaded.stdout.strip() == "False"

    def test_cli_imports_no_bench_harness(self):
        """``repro serve`` forks its workers from the CLI process, so importing
        the CLI must not load the benchmark harness into every server."""
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print(sorted(m for m in sys.modules "
             "if m.startswith('repro.benchharness')))"],
            env=src_env(), capture_output=True, text=True, check=True, timeout=120,
        )
        assert loaded.stdout.strip() == "[]"
