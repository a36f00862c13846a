"""Unit tests for the planner layer: plan IR, explain, executor, service/CLI."""

import json

import pytest

from repro import (
    Atom,
    ConjunctiveQuery,
    Database,
    FDSet,
    IntractableQueryError,
    LexDirectAccess,
    LexOrder,
    Relation,
    SumDirectAccess,
    explain,
    plan,
)
from repro.core.access import batch_access
from repro.core.snapshot import installed
from repro.engine.backends import available_backends
from repro.exceptions import QueryStructureError
from repro.planner import PLAN_MODES, PlanExecutor
from repro.workloads.generators import generate_star_database
from tests.helpers import MonolithLexAccess

PATH = ConjunctiveQuery(("x", "y", "z"), [Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
SINGLE = ConjunctiveQuery(("x", "y"), [Atom("R", ("x", "y"))])


def path_db():
    return Database([
        Relation("R", ("x", "y"), [(1, 5), (1, 2), (6, 2)]),
        Relation("S", ("y", "z"), [(5, 3), (5, 4), (5, 6), (2, 5)]),
    ])


class TestPlan:
    def test_lex_plan_captures_the_whole_trace(self):
        p = plan(PATH, LexOrder(("x", "y", "z")))
        assert p.mode == "lex"
        assert p.classification.tractable
        assert p.full_query == "Q_full(x, y, z) :- R_free(x, y), S_free(y, z)"
        assert p.complete_order == "x, y, z"
        assert [layer.variable for layer in p.layers] == ["x", "y", "z"]
        names = [stage.name for stage in p.stages]
        assert names[:3] == ["classify", "normalize", "eliminate_projections"]
        assert {"layer:1", "layer:2", "layer:3"} <= set(names)
        # Layer dependencies encode children-before-parents.
        assert p.stage("layer:2").depends_on == ("layer:3",)

    def test_partial_order_is_completed_in_the_plan(self):
        p = plan(PATH, LexOrder(("y",)))
        assert p.complete_order is not None
        assert p.complete_order.startswith("y")
        assert len(p.complete_order.split(", ")) == 3

    def test_sum_plan_records_covering_atom(self):
        p = plan(SINGLE, mode="sum")
        assert p.covering_atom == "R(x, y)"
        assert [stage.name for stage in p.stages] == [
            "classify", "normalize", "semi_join_reduce", "project_answers",
            "score_and_sort",
        ]

    def test_selection_lex_plan_lists_per_variable_stages(self):
        p = plan(PATH, LexOrder(("z",)), mode="selection_lex")
        assert p.ordered_variables[0] == "z"
        assert [s.name for s in p.stages if s.name.startswith("select:")] == [
            f"select:{v}" for v in p.ordered_variables
        ]

    def test_intractable_raises_with_enforcement(self):
        with pytest.raises(IntractableQueryError):
            plan(PATH, LexOrder(("x", "z", "y")))

    def test_intractable_without_enforcement_still_plans(self):
        p = plan(PATH, LexOrder(("x", "z", "y")),
                 enforce_tractability=False, strict=False)
        assert p.classification.verdict == "intractable"
        assert p.error is not None          # no layered tree exists
        with pytest.raises(QueryStructureError):
            PlanExecutor(p, path_db())

    def test_fd_rewrite_recorded(self):
        fds = FDSet.of(("R", "x", "y"))
        p = plan(PATH, LexOrder(("x", "z", "y")), fds=fds)
        assert p.fd_rewrite is not None
        assert "reordered_order" in p.fd_rewrite
        assert p.stage("fd_rewrite") is not None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            plan(PATH, mode="nope")

    def test_sum_mode_rejects_order(self):
        with pytest.raises(ValueError):
            plan(SINGLE, LexOrder(("x",)), mode="sum")

    def test_text_inputs_are_parsed(self):
        p = plan("Q(x, y) :- R(x, y)", "y desc, x")
        assert p.order == "y desc, x"
        assert p.layers[0].descending


class TestExplain:
    def test_explain_is_json_ready(self):
        document = explain("Q(x, y, z) :- R(x, y), S(y, z)", "x, y, z")
        encoded = json.loads(json.dumps(document))
        assert encoded["classification"]["verdict"] == "tractable"
        assert encoded["fingerprint"] == document["fingerprint"]
        assert [s["name"] for s in encoded["stages"]][0] == "classify"

    def test_explain_never_raises_for_intractable(self):
        document = explain("Q(x, y, z) :- R(x, y), S(y, z)", "x, z, y")
        assert document["classification"]["verdict"] == "intractable"
        assert "error" in document

    @pytest.mark.parametrize("mode", PLAN_MODES)
    def test_every_mode_explains(self, mode):
        order = "x, y" if mode in ("lex", "selection_lex") else None
        document = explain("Q(x, y) :- R(x, y)", order, mode=mode)
        assert document["mode"] == mode

    @pytest.mark.parametrize("mode", ["lex", "selection_lex"])
    def test_orderless_lex_modes_explain_without_error(self, mode):
        # Regression: selection_lex without an order used to crash with an
        # AttributeError that escaped strict=False.
        document = explain("Q(x, y) :- R(x, y)", mode=mode)
        assert "error" not in document
        assert document["classification"]["verdict"] == "tractable"

    def test_orderless_selection_lex_is_executable(self):
        p = plan(PATH, mode="selection_lex")
        answer = PlanExecutor(p, path_db()).select_lex(0)
        assert len(answer) == 3


class TestExecutor:
    def test_mode_mismatch_is_refused(self):
        p = plan(SINGLE, mode="sum")
        with pytest.raises(QueryStructureError):
            PlanExecutor(p, path_db()).build_lex()

    def test_build_records_stats_on_the_plan(self):
        p = plan(PATH, LexOrder(("x", "y", "z")))
        assert p.stats is None
        built = PlanExecutor(p, path_db()).build_lex()
        assert p.stats is built.report
        assert built.report.stage("eliminate_projections") is not None
        assert built.report.total_seconds > 0

    def test_prebuilt_plan_reused_by_facade(self):
        p = plan(PATH, LexOrder(("x", "y", "z")))
        access = LexDirectAccess(PATH, path_db(), LexOrder(("x", "y", "z")), plan=p)
        assert access.plan is p
        assert access.count == 5

    def test_boolean_query_via_planner(self):
        boolean = ConjunctiveQuery((), [Atom("R", ("x", "y"))], name="B")
        p = plan(boolean, LexOrder(()))
        assert p.boolean
        built = PlanExecutor(p, path_db()).build_lex()
        assert built.boolean_answers == [()]


class TestParallelStarBuild:
    """A star query's sibling layers are independent subtrees; the bottom-up
    build must equal the planner-free wiring, through the object walk and
    through the image."""

    STAR = ConjunctiveQuery(
        ("c", "x1", "x2", "x3", "x4"),
        [Atom(f"R{i}", ("c", f"x{i}")) for i in range(1, 5)],
        name="Qstar",
    )

    @pytest.mark.parametrize("backend", available_backends())
    def test_serial_build_equals_monolith(self, backend):
        import random

        order = LexOrder(self.STAR.free_variables)
        database = generate_star_database(60, 12, branches=4, seed=13,
                                          backend=backend)
        p = plan(self.STAR, order, backend=backend)
        built = PlanExecutor(p, database).build_lex()
        monolith = MonolithLexAccess(self.STAR, database, order, backend=backend)
        count = monolith.count
        assert built.instance.count == count > 1
        rng = random.Random(13)
        ranks = sorted({0, count - 1, *(rng.randrange(count) for _ in range(200))})
        expected = monolith.batch_access(ranks)
        assert batch_access(built.instance, ranks) == expected
        image = installed(built.instance)
        if image is not None:
            assert image.instance().page(ranks).tuples() == expected


class TestServiceExplain:
    def test_explain_op(self):
        from repro.service import QueryService

        service = QueryService()
        response = service.execute({
            "op": "explain",
            "query": "Q(x, y, z) :- R(x, y), S(y, z)",
            "order": "x, y, z",
        })
        assert response["ok"], response
        assert response["explain"]["classification"]["verdict"] == "tractable"

    def test_explain_rejects_unknown_mode(self):
        from repro.service import QueryService

        response = QueryService().execute({
            "op": "explain", "query": "Q(x, y) :- R(x, y)", "mode": "enum",
        })
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"

    def test_prepared_plan_carries_query_plan(self):
        from repro.service import QueryService

        service = QueryService()
        service.register_database("demo", path_db())
        prepared = service.prepare("demo", "Q(x, y, z) :- R(x, y), S(y, z)")
        assert prepared.query_plan is not None
        assert prepared.query_plan.mode == "lex"
        assert prepared.query_plan.stats is not None

    def test_spec_fingerprint_insensitive_to_fd_listing(self):
        from repro.service.protocol import PlanSpec

        a = PlanSpec.create("demo", "Q(x, y) :- R(x, y)",
                            fds=["R: x -> y", "R: y -> x"])
        b = PlanSpec.create("demo", "Q(x, y) :- R(x, y)",
                            fds=["R: y -> x", "R: x -> y"])
        assert a.fingerprint == b.fingerprint

    def test_spec_fingerprint_sensitive_to_weights(self):
        from repro.service.protocol import PlanSpec

        a = PlanSpec.create("demo", "Q(x, y) :- R(x, y)", mode="sum")
        b = PlanSpec.create(
            "demo", "Q(x, y) :- R(x, y)", mode="sum",
            weights={"mappings": {"x": [[1, 2.0]]}},
        )
        assert a.fingerprint != b.fingerprint


class TestExplainCLI:
    def test_pretty_output_and_exit_code(self, capsys):
        from repro.cli import main

        assert main(["explain", "Q(x, y) :- R(x, y)", "--order", "x, y"]) == 0
        output = capsys.readouterr().out
        assert "layered join tree" in output
        assert "verdict: tractable" in output

    def test_json_output(self, capsys):
        from repro.cli import main

        assert main(["explain", "Q(x, y) :- R(x, y)", "--order", "x, y", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["mode"] == "lex"

    def test_intractable_exit_code(self, capsys):
        from repro.cli import main

        assert main(["explain", "Q(x, y, z) :- R(x, y), S(y, z)",
                     "--order", "x, z, y"]) == 1

    def test_selection_mode_spelling(self, capsys):
        from repro.cli import main

        assert main(["explain", "Q(x, y) :- R(x, y)", "--mode", "selection-sum"]) == 0
        assert "select_fmh1" in capsys.readouterr().out


class TestRangeAccessValidation:
    """Satellite: typed, named validation on both structures' range surface."""

    def setup_method(self):
        self.lex = LexDirectAccess(PATH, path_db(), LexOrder(("x", "y", "z")))
        self.sum = SumDirectAccess(SINGLE, path_db())

    @pytest.mark.parametrize("structure", ["lex", "sum"])
    def test_reversed_bounds_raise(self, structure):
        from repro.exceptions import OutOfBoundsError

        access = getattr(self, structure)
        with pytest.raises(OutOfBoundsError, match=r"range \[2, 1\)"):
            access.range_access(2, 1)

    @pytest.mark.parametrize("structure", ["lex", "sum"])
    @pytest.mark.parametrize("bad", [0.5, True, "0", None])
    def test_non_integer_bounds_raise_typeerror(self, structure, bad):
        access = getattr(self, structure)
        with pytest.raises(TypeError, match="answer rank must be an integer"):
            access.range_access(bad, 1)
        with pytest.raises(TypeError, match="answer rank must be an integer"):
            access.range_access(0, bad)

    @pytest.mark.parametrize("structure", ["lex", "sum"])
    def test_out_of_bounds_named_error(self, structure):
        from repro.exceptions import OutOfBoundsError

        access = getattr(self, structure)
        with pytest.raises(OutOfBoundsError, match="out of bounds"):
            access.range_access(0, access.count + 1)
        with pytest.raises(OutOfBoundsError):
            access.range_access(-1, 1)

    def test_answer_weight_rejects_bool_and_float(self):
        with pytest.raises(TypeError, match="not bool"):
            self.sum.answer_weight(True)
        with pytest.raises(TypeError, match="not float"):
            self.sum.answer_weight(0.5)

    def test_answer_weight_out_of_bounds_names_count(self):
        from repro.exceptions import OutOfBoundsError

        with pytest.raises(OutOfBoundsError, match=f"{self.sum.count} answers"):
            self.sum.answer_weight(self.sum.count)
