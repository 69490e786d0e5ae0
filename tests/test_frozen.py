"""The one freeze rule: every array a result holds is backed by immutable bytes,
and every mapping it holds is a copy that refuses changes."""

import ast
import copy
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest

import histories_kit
from histories_kit import dsl, hilbert
from histories_kit.bell import (
    CorrelationData,
    LHVModel,
    SettingPair,
    chsh_value,
    joint_probabilities,
    neon_setup,
    no_signaling_check,
    singlet_state,
)
from histories_kit.hilbert import (
    GridWavefunction,
    Ket,
    Operator,
    Projector,
    Region,
    builtin_operator,
    spectral_decompose,
    tensor_product,
)
from histories_kit.histories import HistoryFamily, TimeGrid, consistency_check
from histories_kit.sampler import RunConfig, empirical_chsh

Z = builtin_operator("Z")
X = builtin_operator("X")
I2 = builtin_operator("I", 2)
NEON = neon_setup()


def projector():
    p = Ket([0.6, 0.8j, 0.0]).projector()
    return p, p.entries, Projector(p.op)


def consistency_report():
    fam = HistoryFamily(
        grid=TimeGrid(("t0", "t1", "t2"), (Z, Z)),
        initial=Ket([0.6, 0.8]),
        event_pdis=(spectral_decompose(X).pdi, spectral_decompose(Z).pdi),
    )
    report = consistency_check(fam)
    return report, report.gram, fam._label_index


def no_signaling_report():
    # Z x I and X x I have eigenspaces of P x I form, and I x Z of I x Q form
    alice = [spectral_decompose(tensor_product(a, I2)).pdi for a in (Z, X)]
    bob = spectral_decompose(tensor_product(I2, Z)).pdi
    return no_signaling_check(singlet_state(), alice, bob, (2, 2))


def lhv_model():
    return LHVModel(("l0", "l1"), [0.5, 0.5], {0: [1, 0]}, {0: [0.25, 1]})


def grid_wavefunction():
    return GridWavefunction(np.array([1.0, 2.0, 2.0]), {"L": Region([0])})


RESULTS = {
    "Ket": lambda: Ket([0.6, 0.8]),
    "GridWavefunction": grid_wavefunction,
    "Projector": projector,
    "Observable": lambda: spectral_decompose(Operator(np.diag([1.0, 1.0, -2.0]))),
    "ConsistencyReport": consistency_report,
    "CorrelationData": lambda: CorrelationData(np.full((2, 2), 0.5)),
    "CHSHValue": lambda: chsh_value(NEON.top_eigenstate, NEON.ops),
    "LHVModel": lhv_model,
    "joint_probabilities": lambda: joint_probabilities(
        singlet_state(), spectral_decompose(Z).pdi, spectral_decompose(X).pdi
    ),
    "NoSignalingReport": no_signaling_report,
    "EmpiricalCHSH": lambda: empirical_chsh(NEON.top_eigenstate, NEON.ops, RunConfig(1000, 7)),
}


@pytest.mark.parametrize("build", RESULTS.values(), ids=RESULTS.keys())
def test_result_arrays_are_immutable(build, assert_frozen):
    assert_frozen(build())


def test_one_freeze_site():
    # the rule stays one helper: no array is frozen by its flag, and only
    # _frozen builds an array on bytes
    helper = inspect.getsource(hilbert._frozen)
    assert ".tobytes()" in helper
    for path in sorted(Path(histories_kit.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "setflags(" not in text, path.name
        if path.name == "hilbert.py":
            text = text.replace(helper, "", 1)
        assert ".tobytes()" not in text, path.name


def test_cli_builds_no_history_tuples():
    # cli writes probs and consistency from the scan's arrays: it never calls
    # all_histories or family_probabilities, and reads `.histories` only of a
    # family, for the label tuples of an explicit subset, never of a report
    tree = ast.parse(Path(histories_kit.__file__).with_name("cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            assert name not in ("all_histories", "family_probabilities"), f"cli.py:{node.lineno}"
        elif isinstance(node, ast.Attribute) and node.attr == "histories":
            assert isinstance(node.value, ast.Name) and node.value.id == "family", (
                f"cli.py:{node.lineno}"
            )


def test_cli_reads_queries_by_kind():
    # cli takes only the parser and the query renderer from dsl, and runs each
    # query by its `kind`, never by testing it against a dsl query class
    queries = {name for name, v in vars(dsl).items() if isinstance(v, type) and "Query" in name}
    assert queries, "dsl defines no query classes to lint against"
    tree = ast.parse(Path(histories_kit.__file__).with_name("cli.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dsl":
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            tested = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:2]
            names = {getattr(t, "id", getattr(t, "attr", None)) for t in tested}
            assert not names & queries, f"cli.py:{node.lineno}"
    assert sorted(imported) == ["parse_spec", "render_query"]


def _is_labels(node):
    return isinstance(node, ast.Attribute) and node.attr == "labels"


def test_label_lookups_read_the_label_map():
    # an event is found by its label through PDI._positions alone, never by a
    # search of a labels tuple with .index() or `in` (a for loop over it is fine)
    for path in sorted(Path(histories_kit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                searched = node.func.attr == "index" and _is_labels(node.func.value)
            elif isinstance(node, ast.Compare):
                searched = any(
                    isinstance(op, (ast.In, ast.NotIn)) and _is_labels(right)
                    for op, right in zip(node.ops, node.comparators)
                )
            else:
                continue
            assert not searched, f"{path.name}:{node.lineno}"


class TestFrozenMappings:
    def test_response_table_refuses_writes(self):
        m = lhv_model()
        with pytest.raises(TypeError):
            m.resp_a[0] = np.array([3.0, 3.0])
        with pytest.raises(TypeError):
            del m.resp_b[0]
        with pytest.raises(TypeError):
            m.resp_a.update({1: np.array([1.0, 1.0])})
        assert -1.0 <= m.correlator(SettingPair(0, 0)) <= 1.0

    def test_regions_refuse_writes(self):
        g = grid_wavefunction()
        with pytest.raises(TypeError):
            g.regions["far"] = Region([10])
        with pytest.raises(TypeError):
            g.regions.setdefault("far", Region([10]))
        assert all(max(r.indices) < g.points for r in g.regions.values())

    def test_caller_mapping_is_copied(self):
        regions = {"L": Region([0])}
        g = GridWavefunction(np.array([1.0, 2.0, 2.0]), regions)
        regions["far"] = Region([10])
        assert list(g.regions) == ["L"]

    def test_response_arrays_stay_reachable(self, reachable_arrays):
        # the prior and one response array per party
        assert len(reachable_arrays(lhv_model())) == 3

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
    )
    def test_results_still_copy_and_pickle(self, clone):
        m, g, pdi = clone(lhv_model()), clone(grid_wavefunction()), clone(spectral_decompose(Z).pdi)
        assert m.correlator(SettingPair(0, 0)) == lhv_model().correlator(SettingPair(0, 0))
        assert list(g.regions) == ["L"] and g.regions["L"] == Region([0])
        assert pdi.by_label(pdi.labels[1]).rank == 1
        for mapping in (m.resp_a, g.regions, pdi._positions):
            with pytest.raises(TypeError):
                mapping.clear()
