"""The one freeze rule: every array a result holds is backed by immutable bytes."""

import inspect
from pathlib import Path

import numpy as np
import pytest

import histories_kit
from histories_kit import hilbert
from histories_kit.bell import (
    CorrelationData,
    LHVModel,
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


RESULTS = {
    "Ket": lambda: Ket([0.6, 0.8]),
    "GridWavefunction": lambda: GridWavefunction(np.array([1.0, 2.0, 2.0]), {"L": Region([0])}),
    "Projector": projector,
    "Observable": lambda: spectral_decompose(Operator(np.diag([1.0, 1.0, -2.0]))),
    "ConsistencyReport": consistency_report,
    "CorrelationData": lambda: CorrelationData(np.full((2, 2), 0.5)),
    "CHSHValue": lambda: chsh_value(NEON.top_eigenstate, NEON.ops),
    "LHVModel": lambda: LHVModel(("l0", "l1"), [0.5, 0.5], {0: [1, 0]}, {0: [0.25, 1]}),
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
