"""Acceptance gate: one test per shipping criterion.

Each test exercises its criterion at the stated tolerance, enforces the
runtime budget, and prints a single pass line (visible with `pytest -s`;
under `pytest -v` the per-test PASSED/FAILED line carries the verdict).
"""

import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from histories_kit import cli, dsl, hilbert
from histories_kit.bell import (
    CHSHOperators,
    LHVModel,
    SettingPair,
    chsh_value,
    collapse_conditional,
    joint_probabilities,
    lambda_model_fixed_settings,
    lhv_deterministic_bound,
    lhv_feasibility,
    neon_setup,
    no_signaling_check,
    sigma_zx,
    singlet_chsh_operators,
    singlet_state,
)
from histories_kit.dsl import MAX_DIM, parse_spec, render_spec
from histories_kit.errors import NonCommutingError, ParseError
from histories_kit.hilbert import (
    PDI,
    GridWavefunction,
    Ket,
    Operator,
    Projector,
    Region,
    builtin_operator,
    common_refinement,
    pdi_compatible,
    possesses,
    region_projector,
    spectral_decompose,
)
from histories_kit.histories import (
    build_measurement_model,
    conditional_probability,
    consistency_check,
    family_probabilities,
    standard_families,
)
from histories_kit.sampler import MAX_SHOTS, RunConfig, empirical_chsh

ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "specs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

ROOT8 = 2 * math.sqrt(2)


class _Budget:
    """Context manager asserting the body finished inside its time budget."""

    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded budget: {elapsed:.3f}s >= {self.seconds}s"
            )
            print(
                f"criterion {self.number:2d} PASS  {self.label} "
                f"({elapsed:.3f}s < {self.seconds}s)"
            )
        return False


def random_ket(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(v)


def lift_pdi(local: PDI, side: int) -> PDI:
    eye = np.eye(2)
    mats = [
        np.kron(p.entries, eye) if side == 0 else np.kron(eye, p.entries)
        for p in local.projectors
    ]
    return PDI([Projector(Operator(m)) for m in mats], labels=local.labels)


def test_criterion_01_neon_chsh_spectrum_and_expectation():
    with _Budget(1, "neon CHSH spectrum, expectation, four-run sum", 0.1):
        setup = neon_setup()
        obs = spectral_decompose(setup.s)
        flat = []
        for ev, proj in zip(obs.eigenvalues, obs.pdi.projectors):
            flat.extend([ev] * proj.rank)
        assert np.abs(np.array(flat) - np.array([ROOT8, 0.0, 0.0, -ROOT8])).max() < 1e-9

        direct = setup.s.expectation(setup.top_eigenstate).real
        assert abs(direct - ROOT8) < 1e-10

        value = chsh_value(setup.top_eigenstate, setup.ops)
        assert abs(value.correlations.chsh - value.direct_expectation) < 1e-10


def test_criterion_02_classical_bound_exhaustive():
    with _Budget(2, "16-strategy enumeration, max |S| = 2 exactly", 0.01):
        report = lhv_deterministic_bound()
        assert len(report.strategies) == 16
        assert max(abs(s.chsh()) for s in report.strategies) == 2
        assert report.max_s == 2.0
        assert report.min_s == -2.0


def test_criterion_03_measurement_frameworks_on_random_states():
    with _Budget(3, "F2/Fu family probabilities over 1000 random states", 5.0):
        z_obs = spectral_decompose(builtin_operator("Z"))
        model = build_measurement_model(z_obs, pointer_dim=3)
        rng = np.random.default_rng(301)
        for _ in range(1000):
            psi0 = random_ket(rng, 2)
            fams = standard_families(model, psi0)
            weights = np.abs(psi0.amplitudes) ** 2

            # unitary family carries exactly one unit-probability history
            fu_table = family_probabilities(fams.f_u)
            assert abs(fu_table.probabilities[("psi1", "psi2")] - 1.0) < 1e-12

            assert consistency_check(fams.f2).max_offdiag < 1e-10
            table = family_probabilities(fams.f2)
            for j in range(2):
                for k in ("0", "1", "rest"):
                    p = table.probabilities[(str(j), k)]
                    expected = weights[j] if k == str(j) else 0.0
                    assert abs(p - expected) < 1e-10

            # retrodiction: pointer reading k implies earlier outcome j = k
            for k in range(2):
                if weights[k] < 1e-12:
                    continue
                for j in range(2):
                    cond = conditional_probability(
                        fams.f2, given=(2, str(k)), target=(1, str(j))
                    )
                    assert abs(cond - (1.0 if j == k else 0.0)) < 1e-10


def test_criterion_04_collapse_equals_joint_on_random_bases():
    with _Budget(4, "collapse rule equals joint table, 200 random bases", 2.0):
        state = singlet_state()
        rng = np.random.default_rng(401)
        for _ in range(200):
            ta, tb = rng.uniform(0, 2 * math.pi, size=2)
            pa = spectral_decompose(sigma_zx(ta)).pdi
            pb = spectral_decompose(sigma_zx(tb)).pdi
            joints = joint_probabilities(state, pa, pb)
            for j, a_proj in enumerate(pa.projectors):
                for k, b_proj in enumerate(pb.projectors):
                    res = collapse_conditional(state, a_proj, b_proj)
                    produced = res.outcome_probability * res.conditional_probability
                    assert abs(produced - joints[j, k]) < 1e-12


def test_criterion_05_no_signaling_with_and_without_dynamics():
    with _Budget(5, "Bob marginal invariance, 200 random shared states", 2.0):
        rng = np.random.default_rng(501)
        for _ in range(200):
            state = random_ket(rng, 4)
            angles = rng.uniform(0, 2 * math.pi, size=3)
            alice = [
                lift_pdi(spectral_decompose(sigma_zx(angles[0])).pdi, 0),
                lift_pdi(spectral_decompose(sigma_zx(angles[1])).pdi, 0),
            ]
            bob = lift_pdi(spectral_decompose(sigma_zx(angles[2])).pdi, 1)

            report = no_signaling_check(state, alice, bob, (2, 2))
            assert report.passes
            assert report.max_deviation <= 1e-12

            phi_a, phi_b = rng.uniform(0, 2 * math.pi, size=2)
            rot = lambda t: Operator(
                np.array(
                    [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]],
                    dtype=complex,
                )
            )
            dyn = no_signaling_check(
                state, alice, bob, (2, 2), dynamics=(rot(phi_a), rot(phi_b))
            )
            assert dyn.passes
            assert dyn.dynamics_max_deviation <= 1e-12


def test_criterion_06_lambda_model_and_feasibility():
    with _Budget(6, "lambda model joints, singlet infeasibility, LHV soundness", 1.0):
        ops = neon_setup().ops
        rng = np.random.default_rng(601)
        for _ in range(100):
            state = random_ket(rng, 4)
            for a in (0, 1):
                for b in (0, 1):
                    pair = SettingPair(a, b)
                    model = lambda_model_fixed_settings(state, ops, pair)
                    obs_a = spectral_decompose(ops.alice(a))
                    obs_b = spectral_decompose(ops.bob(b))
                    psi = state.amplitudes
                    born = np.zeros((2, 2))
                    for fa, pa in zip(obs_a.eigenvalues, obs_a.pdi.projectors):
                        for fb, pb in zip(obs_b.eigenvalues, obs_b.pdi.projectors):
                            born[0 if fa > 0 else 1, 0 if fb > 0 else 1] += float(
                                np.vdot(psi, pa.entries @ (pb.entries @ psi)).real
                            )
                    assert np.abs(model.joint(pair) - born).max() < 1e-12

        corr = chsh_value(singlet_state(), singlet_chsh_operators()).correlations
        verdict = lhv_feasibility(corr)
        assert not verdict.feasible
        assert abs(abs(verdict.max_combination) - ROOT8) < 1e-9

        for _ in range(50):
            prior = rng.dirichlet(np.ones(5))
            model = LHVModel(
                lambdas=tuple(f"l{i}" for i in range(5)),
                prior=prior,
                resp_a={0: rng.uniform(size=5), 1: rng.uniform(size=5)},
                resp_b={0: rng.uniform(size=5), 1: rng.uniform(size=5)},
            )
            assert lhv_feasibility(model.correlation_data()).feasible


def test_criterion_07_singlet_correlator_law():
    with _Budget(7, "E(theta) = -cos(theta) on 181-point grid, both routes", 1.0):
        state = singlet_state()
        eye = np.eye(2)
        for deg in range(181):
            theta = math.radians(deg)
            a = sigma_zx(0.0)
            b = sigma_zx(theta)
            pa = spectral_decompose(a).pdi
            pb = spectral_decompose(b).pdi

            # route 1: joint-probability sums with outcome signs
            joints = joint_probabilities(state, pa, pb)
            e_sum = joints[0, 0] - joints[0, 1] - joints[1, 0] + joints[1, 1]

            # route 2: direct 4x4 expectation of the observable product
            op = Operator(np.kron(a.entries, eye) @ np.kron(eye, b.entries))
            e_direct = op.expectation(state).real

            assert abs(e_sum - (-math.cos(theta))) < 1e-10
            assert abs(e_direct - (-math.cos(theta))) < 1e-10

        same = joint_probabilities(state, spectral_decompose(sigma_zx(0.0)).pdi,
                                   spectral_decompose(sigma_zx(0.0)).pdi)
        assert same[0, 0] < 1e-12 and same[1, 1] < 1e-12


def test_criterion_08_sampler_statistics_million_shots():
    with _Budget(8, "10^6-shot empirical CHSH within 5 sigma, bit-exact repeat", 30.0):
        setup = neon_setup()
        cfg = RunConfig(shots=1_000_000, seed=808)
        est = empirical_chsh(setup.top_eigenstate, setup.ops, cfg)
        assert abs(est.s_hat - ROOT8) < 5 * est.std_error

        repeat = empirical_chsh(setup.top_eigenstate, setup.ops, cfg)
        assert repeat.s_hat == est.s_hat
        for pair in est.per_setting:
            assert repeat.per_setting[pair].counts == est.per_setting[pair].counts


def test_criterion_09_region_and_property_algebra():
    with _Budget(9, "disjoint regions, superposition possesses span only", 0.01):
        left = region_projector(8, Region(range(0, 4)))
        right = region_projector(8, Region(range(4, 8)))
        assert np.abs((left.op @ right.op).entries).max() == 0.0

        wf = GridWavefunction(np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=complex))
        assert possesses(wf.as_ket(), left)
        assert not possesses(wf.as_ket(), right)

        chi = Ket(np.array([1, 1, 0, 0], dtype=complex))
        p0 = Ket(np.array([1, 0, 0, 0], dtype=complex)).projector()
        p1 = Ket(np.array([0, 1, 0, 0], dtype=complex)).projector()
        span = Projector(p0.op + p1.op)
        assert possesses(chi, span)
        assert not possesses(chi, p0)
        assert not possesses(chi, p1)


def test_criterion_10_dsl_corpus_and_fuzz():
    with _Budget(10, "corpus round-trip, pinned reports, 10^4 fuzz", 20.0):
        corpus = sorted(SPEC_DIR.glob("*.spec"))
        assert len(corpus) >= 6
        stems = {p.stem for p in corpus}
        assert "neon" in stems and "epr" in stems

        for path in corpus:
            text = path.read_text()
            spec = parse_spec(text)
            assert parse_spec(render_spec(spec)) == spec

        saved_version = cli.TOOL_VERSION
        cli.TOOL_VERSION = "TEST"
        try:
            for path in corpus:
                buf = io.StringIO()
                code = cli.execute(["run", str(path), "--format", "json"], out=buf)
                assert code == 0
                golden = (GOLDEN_DIR / f"run-{path.stem}.json").read_text()
                assert buf.getvalue() == golden
                json.loads(golden)
        finally:
            cli.TOOL_VERSION = saved_version

        blobs = [p.read_bytes() for p in corpus]
        rng = random.Random(0xFADE)
        for _ in range(10_000):
            data = bytearray(rng.choice(blobs))
            for _ in range(rng.randint(1, 8)):
                if not data:
                    data.append(rng.randrange(256))
                    continue
                pos = rng.randrange(len(data))
                roll = rng.random()
                if roll < 0.5:
                    data[pos] = rng.randrange(256)
                elif roll < 0.75:
                    del data[pos]
                else:
                    data.insert(pos, rng.randrange(256))
            text = bytes(data).decode("utf-8", errors="replace")
            try:
                parse_spec(text)
            except ParseError:
                pass


def _check_projector_sum_parse(number: int, dim: int, label: str, seconds: float):
    """Parse spectral(H) within the budget, H written as its spectral
    decomposition: dim terms lambda_k*proj(v_k) over a random real orthonormal
    basis, 15 decimals per entry (about 20 bytes of spec text per entry)."""
    rng = np.random.default_rng(dim)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0].T  # rows are orthonormal
    values = [f"{1.0 + 0.05 * i:.6f}" for i in rng.permutation(dim)]
    lines = [f"ket v{i} = [{', '.join(f'{x:.15f}' for x in row)}]" for i, row in enumerate(basis)]
    lines.append("op H = " + " + ".join(f"{lam}*proj(v{i})" for i, lam in enumerate(values)))
    lines.append("pdi P = spectral(H)")
    text = "\n".join(lines) + "\n"
    with _Budget(number, label, seconds):
        spec = parse_spec(text)
    binding = spec.environment["P"]
    assert len(binding.value) == dim
    expected = sorted((float(v) for v in values), reverse=True)
    assert np.abs(np.array(binding.extra) - expected).max() < 1e-9


def test_criterion_11_spectral_spec_parse_scales_to_d192():
    dim = 192
    label = f"spectral(H) spec with d={dim} distinct eigenvalues parses"
    _check_projector_sum_parse(11, dim, label, 10.0)


def test_criterion_12_largest_sample_query_within_budget(tmp_path):
    spec = tmp_path / "max_shots.spec"
    spec.write_text(
        "ket psi = [0.6, 0.8]\nop H = Z\npdi P = spectral(H)\n"
        f"query sample psi P shots {MAX_SHOTS} seed 1\n"
    )
    out = io.StringIO()
    with _Budget(12, f"two-outcome sample query at MAX_SHOTS = {MAX_SHOTS} runs", 10.0):
        code = cli.execute(["run", str(spec), "--format", "json"], out=out)
    assert code == 0
    result = json.loads(out.getvalue())["results"][0]
    assert sum(result["counts"].values()) == MAX_SHOTS
    # <Z> = 0.36 - 0.64 in this state
    assert abs(result["empirical_mean"] + 0.28) < 5 * result["std_error"]


def _capped_child(limit_bytes: int):
    """preexec hook: cap the child's address space at limit_bytes."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))


def _capped_run(spec: Path, limit_bytes: int) -> subprocess.CompletedProcess:
    """`histkit run spec --format json` as a fresh process with BLAS on one
    thread and its address space capped at limit_bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-m", "histories_kit.cli", "run", str(spec), "--format", "json"]
    return subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_capped_child(limit_bytes),
    )


def test_criterion_13_spectral_spec_at_max_dim(tmp_path):
    # H = sum_k 2^k/1024 kron(I(2^k), kron(sigma(theta_k), I(2^(9-k)))) has the
    # 1024 distinct eigenvalues sum_k 2^k s_k / 1024 (s_k = +-1), each with a
    # product eigenvector, so the Born weights have an independent closed form
    dim, factors, shots, seed = 1024, 10, 4096, 13
    angles = [10.0 + 17.0 * k for k in range(factors)]
    terms = [
        f"{2**k / dim}*kron(I({2**k}), kron(sigma({theta}), I({2 ** (factors - 1 - k)})))"
        for k, theta in enumerate(angles)
    ]
    rng = np.random.default_rng(1024)
    amps = [f"{x:.8f}" for x in rng.standard_normal(dim)]
    spec = tmp_path / "max_dim.spec"
    spec.write_text(
        f"op H = {' + '.join(terms)}\npdi P = spectral(H)\n"
        f"ket psi = [{', '.join(amps)}]\nquery sample psi P shots {shots} seed {seed}\n"
    )
    with _Budget(13, f"spectral(H) spec at d={dim} samples within 1 GiB", 15.0):
        child = _capped_run(spec, 1 << 30)
    assert child.returncode == 0, child.stderr[-2000:]
    (result,) = json.loads(child.stdout)["results"]
    assert sum(result["counts"].values()) == shots

    # closed form: eigenvector columns are Kronecker products of the factors'
    # sigma(theta) eigenvectors, in descending order of their eigenvalues
    local = [np.linalg.eigh(sigma_zx(math.radians(t)).entries) for t in angles]
    basis = np.ones((1, 1))
    values = np.zeros(1)
    for k, (evals, evecs) in enumerate(local):
        basis = np.kron(basis, evecs)
        values = np.add.outer(values, 2**k / dim * evals).reshape(-1)
    psi = np.array([float(a) for a in amps])
    weights = np.abs(basis.conj().T @ (psi / np.linalg.norm(psi))) ** 2
    expected = weights[np.argsort(-values, kind="stable")]
    reported = np.array([result["probabilities"][str(i)] for i in range(dim)])
    assert np.abs(reported - expected).max() < 1e-9


def test_criterion_14_commutation_of_spectral_pdis_at_d256():
    # two Hermitians with the shared random eigenbasis u and the eigenvalues
    # 1..dim in different orders; spectral labels count the larger eigenvalues
    dim = 256
    rng = np.random.default_rng(14)
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    lam, mu = rng.permutation(dim) + 1.0, rng.permutation(dim) + 1.0
    p = spectral_decompose(Operator((u * lam) @ u.conj().T)).pdi
    q = spectral_decompose(Operator((u * mu) @ u.conj().T)).pdi
    with _Budget(14, f"two commuting spectral PDIs at d={dim} refine", 10.0):
        assert pdi_compatible(p, q)
        ref = common_refinement(p, q)
    assert len(ref) == dim and all(m.rank == 1 for m in ref.projectors)
    # the pair of column i is (P with eigenvalue lam[i], Q with mu[i])
    assert {f"{dim - int(l)}&{dim - int(m)}" for l, m in zip(lam, mu)} == set(ref.labels)

    # rotating shared eigenvectors a and b of the second Hermitian breaks the
    # pairs holding them; the first in p-major order is reported
    a, b = 5, 200
    rotated = u.copy()
    c, s = math.cos(0.3), math.sin(0.3)
    rotated[:, a], rotated[:, b] = c * u[:, a] + s * u[:, b], c * u[:, b] - s * u[:, a]
    r = spectral_decompose(Operator((rotated * mu) @ rotated.conj().T)).pdi
    assert not pdi_compatible(p, r)
    with pytest.raises(NonCommutingError) as exc:
        common_refinement(p, r)
    first = (str(dim - int(max(lam[a], lam[b]))), str(dim - int(max(mu[a], mu[b]))))
    assert exc.value.pair == first


def test_criterion_16_projector_sum_parse_at_d512():
    # about 5 MB of spec text
    dim = 512
    _check_projector_sum_parse(16, dim, f"spectral(H) spec with a {dim}-term projector sum parses", 2.0)


def _blocked_max_offdiag(chains: np.ndarray, block: int = 128) -> float:
    """Largest |<K(Y)|K(Z)>| over Y != Z from every upper-triangle Gram entry."""
    worst = 0.0
    for start in range(0, len(chains), block):
        rows = chains[start : start + block].conj() @ chains[start:].T
        own = np.arange(len(rows))
        rows[own, own] = 0.0
        worst = max(worst, float(np.abs(rows).max()))
    return worst


def test_criterion_17_consistency_of_a_16384_history_family(tmp_path):
    # a two-qubit family with 14 two-outcome times, kron(sigma(a), sigma(b))
    # propagators and Z events on either qubit: generically inconsistent
    times = 14
    rng = np.random.default_rng(17)
    angles = [(f"{a:.6f}", f"{b:.6f}") for a, b in rng.uniform(0.0, 360.0, size=(times, 2))]
    events = rng.choice(["ZA", "ZB"], size=times)
    amps = rng.uniform(0.3, 0.7, size=4) * rng.choice([-1.0, 1.0], size=4)
    lines = [
        "ket k0 = [1, 0]",
        "ket k1 = [0, 1]",
        "op ZA0 = kron(proj(k0), I(2))",
        "op ZA1 = kron(proj(k1), I(2))",
        "op ZB0 = kron(I(2), proj(k0))",
        "op ZB1 = kron(I(2), proj(k1))",
        "pdi ZA = {ZA0, ZA1}",
        "pdi ZB = {ZB0, ZB1}",
        f"ket psi = [{', '.join(f'{x:.17f}' for x in amps)}]",
    ]
    lines += [
        f"op U{t} = kron(sigma({a}), sigma({b}))"
        for t, (a, b) in enumerate(angles, start=1)
    ]
    lines += ["family F {", "  initial psi;"]
    lines += [f"  prop {t} = U{t};" for t in range(1, times + 1)]
    lines += [f"  events {t} = {e};" for t, e in enumerate(events, start=1)]
    lines += ["}", "query consistency F"]
    spec = tmp_path / "h16384.spec"
    spec.write_text("\n".join(lines) + "\n")
    out = io.StringIO()
    with _Budget(17, f"consistency of a {2**times}-history family", 0.5):
        code = cli.execute(["run", str(spec), "--format", "json"], out=out)
    assert code == 0
    (result,) = json.loads(out.getvalue())["results"]
    assert result["n_histories"] == 2**times

    # reference: chain vectors level by level in plain numpy, then every
    # upper-triangle Gram entry
    def sigma(deg):
        c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
        return np.array([[c, s], [s, -c]])

    z = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    lifted = {"ZA": [np.kron(p, np.eye(2)) for p in z], "ZB": [np.kron(np.eye(2), p) for p in z]}
    chains = (amps / np.linalg.norm(amps))[None, :].astype(complex)
    for (a, b), e in zip(angles, events):
        moved = chains @ np.kron(sigma(float(a)), sigma(float(b))).T
        chains = np.stack([moved @ p.T for p in lifted[e]], axis=1).reshape(-1, 4)
    expected = _blocked_max_offdiag(chains)
    assert expected > 1e-6  # far from the consistency tolerance
    # the report rounds to 12 significant digits; the library value is exact
    report = consistency_check(parse_spec(spec.read_text()).environment["F"].value)
    assert abs(report.max_offdiag - expected) <= 1e-12 * expected
    assert result["max_offdiag"] == float(f"{report.max_offdiag:.12g}")
    assert result["consistent"] is False


def _flip_family(rng, times: int):
    """A two-qubit family C with `times` two-outcome times, X-flip propagators and
    Z events on either qubit: each basis state follows one history, so the
    family is consistent and its weights have a closed form. Returns the spec
    lines through C, the events, each basis state's (labels, weight) and the
    weight of each history key."""
    events = [str(e) for e in rng.choice(["ZA", "ZB"], size=times)]
    props = [str(p) for p in rng.choice(["XA", "XB", "XX"], size=times)]
    amps = rng.uniform(0.3, 0.7, size=4) * rng.choice([-1.0, 1.0], size=4)
    flips = {"XA": 2, "XB": 1, "XX": 3}  # XORs on the basis index 2*qA + qB
    trajectories = []
    for start in range(4):
        state, labels = start, []
        for prop, event in zip(props, events):
            state ^= flips[prop]
            bit = state >> 1 if event == "ZA" else state & 1
            labels.append(f"{event}{bit}")
        trajectories.append((labels, amps[start] ** 2 / float(np.sum(amps**2))))
    weights: dict[str, float] = {}
    for labels, w in trajectories:
        key = ",".join(labels)
        weights[key] = weights.get(key, 0.0) + w
    lines = [
        "ket k0 = [1, 0]",
        "ket k1 = [0, 1]",
        "op ZA0 = kron(proj(k0), I(2))",
        "op ZA1 = kron(proj(k1), I(2))",
        "op ZB0 = kron(I(2), proj(k0))",
        "op ZB1 = kron(I(2), proj(k1))",
        "pdi ZA = {ZA0, ZA1}",
        "pdi ZB = {ZB0, ZB1}",
        "op XA = kron(X, I(2))",
        "op XB = kron(I(2), X)",
        "op XX = kron(X, X)",
        f"ket psi = [{', '.join(f'{x:.17f}' for x in amps)}]",
        "family C {",
        "  initial psi;",
    ]
    lines += [f"  prop {t} = {p};" for t, p in enumerate(props, start=1)]
    lines += [f"  events {t} = {e};" for t, e in enumerate(events, start=1)]
    return lines + ["}"], events, trajectories, weights


def _flip_conditional(rng, times: int, events, trajectories):
    """(target time, target label, given time, given label, Pr(target | given))
    for one random pair of times of a `_flip_family`."""
    given_t, target_t = (int(t) for t in rng.choice(times, size=2, replace=False) + 1)
    given_label = trajectories[int(rng.integers(4))][0][given_t - 1]
    target_label = f"{events[target_t - 1]}{int(rng.integers(2))}"
    given_w = [w for labels, w in trajectories if labels[given_t - 1] == given_label]
    joint_w = [
        w for labels, w in trajectories
        if labels[given_t - 1] == given_label and labels[target_t - 1] == target_label
    ]
    return target_t, target_label, given_t, given_label, sum(joint_w) / sum(given_w)


def _check_probs(table: dict, times: int, weights: dict[str, float]):
    probs = table["probabilities"]
    assert len(probs) == 2**times
    assert sum(1 for p in probs.values() if p != 0.0) == len(weights)
    for key, w in weights.items():
        assert abs(probs[key] - w) < 1e-11
    assert abs(table["total"] - 1.0) < 1e-11
    assert table["exhaustive"] is True


def _check_conditionals(results: list[dict], conditionals):
    for got, (t, tl, g, gl, want) in zip(results, conditionals, strict=True):
        assert (got["target"], got["given"]) == (f"{t}:{tl}", f"{g}:{gl}")
        assert abs(got["probability"] - want) < 1e-10


def test_criterion_18_probs_and_conditionals_of_a_65536_history_family(tmp_path):
    # a two-qubit family with 16 two-outcome times, X-flip propagators and Z
    # events on either qubit: each basis state follows one history, so the
    # family is consistent and its weights have a closed form
    times = 16
    rng = np.random.default_rng(18)
    lines, events, trajectories, weights = _flip_family(rng, times)
    conditionals = [_flip_conditional(rng, times, events, trajectories) for _ in range(3)]
    lines += ["query probs C"]
    lines += [f"query conditional C {t}:{tl} | {g}:{gl}" for t, tl, g, gl, _ in conditionals]
    spec = tmp_path / "h65536.spec"
    spec.write_text("\n".join(lines) + "\n")
    out = io.StringIO()
    with _Budget(18, f"probs and 3 conditionals of a {2**times}-history family", 0.5):
        code = cli.execute(["run", str(spec), "--format", "json"], out=out)
    assert code == 0
    table, *conds = json.loads(out.getvalue())["results"]
    _check_probs(table, times, weights)
    _check_conditionals(conds, conditionals)


def test_criterion_21_consistency_probs_and_a_conditional_of_a_262144_history_family(tmp_path):
    # criterion 18's family at 18 times: the probs table is written from the
    # scan's arrays, with no per-history tuple, dict or float call
    times = 18
    rng = np.random.default_rng(21)
    lines, events, trajectories, weights = _flip_family(rng, times)
    conditional = _flip_conditional(rng, times, events, trajectories)
    t, tl, g, gl, _ = conditional
    lines += ["query consistency C", "query probs C", f"query conditional C {t}:{tl} | {g}:{gl}"]
    spec = tmp_path / "h262144.spec"
    spec.write_text("\n".join(lines) + "\n")
    out = io.StringIO()
    label = f"consistency, probs and a conditional of a {2**times}-history family"
    with _Budget(21, label, 0.9):
        code = cli.execute(["run", str(spec), "--format", "json"], out=out)
    assert code == 0
    verdict, table, *conds = json.loads(out.getvalue())["results"]
    assert verdict["consistent"] is True
    assert verdict["n_histories"] == 2**times
    _check_probs(table, times, weights)
    _check_conditionals(conds, [conditional])


def test_criterion_22_consistency_probs_and_a_conditional_of_a_1048576_history_family(tmp_path):
    # criterion 21's queries at 20 times, as a fresh process within 512 MiB: the
    # report, about 100 MB of JSON, is built as one list of pieces joined once,
    # and the probs table's keys as about 1,024 heads and 1,024 tails, never one
    # string per history (with one key string per history the run needs more
    # than 576 MiB of address space)
    times = 20
    rng = np.random.default_rng(22)
    lines, events, trajectories, weights = _flip_family(rng, times)
    conditional = _flip_conditional(rng, times, events, trajectories)
    t, tl, g, gl, _ = conditional
    lines += ["query consistency C", "query probs C", f"query conditional C {t}:{tl} | {g}:{gl}"]
    spec = tmp_path / "h1048576.spec"
    spec.write_text("\n".join(lines) + "\n")
    label = f"consistency, probs and a conditional of a {2**times}-history family within 512 MiB"
    with _Budget(22, label, 3.7):
        child = _capped_run(spec, 512 << 20)
    assert child.returncode == 0, child.stderr[-2000:]
    verdict, table, *conds = json.loads(child.stdout)["results"]
    assert verdict["consistent"] is True
    assert verdict["n_histories"] == 2**times
    _check_probs(table, times, weights)
    _check_conditionals(conds, [conditional])


def test_criterion_19_chsh_and_lhv_of_one_setup_at_max_dim(tmp_path, monkeypatch):
    # Alice measures the first qubit and Bob the second of a d=1024 space, in
    # the singlet on those two qubits times a random state of the rest, so
    # E(a, b) = -cos(a - b); each of the four operators has two eigenspaces of
    # rank 512, and the chsh and lhv queries share one decomposition of each
    dim = 1024
    rest = dim // 4
    deg = (100.0, 10.0, 55.0, 145.0)
    rng = np.random.default_rng(19)
    amps = np.kron([0.0, 1.0, -1.0, 0.0], rng.standard_normal(rest))
    spec = tmp_path / "bell_max_dim.spec"
    spec.write_text(
        f"op A0 = kron(sigma({deg[0]}), I({dim // 2}))\n"
        f"op A1 = kron(sigma({deg[1]}), I({dim // 2}))\n"
        f"op B0 = kron(I(2), kron(sigma({deg[2]}), I({rest})))\n"
        f"op B1 = kron(I(2), kron(sigma({deg[3]}), I({rest})))\n"
        f"ket psi = [{', '.join(f'{x:.17f}' for x in amps)}]\n"
        "query chsh A0 A1 B0 B1 in psi\nquery lhv A0 A1 B0 B1 in psi\n"
    )
    validated = []
    validate = hilbert.pdi_validate

    def counting(projectors):
        validated.append(len(projectors))
        return validate(projectors)

    monkeypatch.setattr(hilbert, "pdi_validate", counting)
    out = io.StringIO()
    with _Budget(19, f"chsh and lhv of one setup at d={dim} decompose 4 operators", 12.0):
        code = cli.execute(["run", str(spec), "--format", "json"], out=out)
    assert code == 0
    assert validated == [2] * 4
    chsh, lhv = json.loads(out.getvalue())["results"]
    a, b = np.radians(deg[:2]), np.radians(deg[2:])
    e = -np.cos(a[:, None] - b[None, :])
    s = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
    assert abs(abs(s) - ROOT8) < 1e-12
    for result in (chsh, lhv):
        assert np.abs(np.array(result["e"]) - e).max() < 1e-9
        assert abs(result["s"] - s) < 1e-9
    assert abs(chsh["direct_expectation"] - s) < 1e-9
    assert lhv["feasible"] is False
    assert abs(lhv["max_combination"] - ROOT8) < 1e-9


def test_criterion_20_projector_sum_parse_at_max_dim():
    # criterion 16's form at d = MAX_DIM: 1024 ket literals of 1024 entries,
    # about 20 MB of spec text
    label = f"spectral(H) spec with a {MAX_DIM}-term projector sum parses"
    _check_projector_sum_parse(20, MAX_DIM, label, 6.0)


def test_criterion_23_degenerate_projector_sum_at_max_dim(tmp_path, monkeypatch):
    # criterion 20's form with two eigenspaces of rank 512 (weights 2.5 and 0.5)
    # and a sample query: spectral(H) reads its spectral form from the kets and
    # weights, so no eigh runs, and the merged eigenvalues are the weights exactly
    dim, shots, seed = MAX_DIM, 4096, 23
    rng = np.random.default_rng(dim + 23)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0].T  # rows are orthonormal
    high = rng.permutation(dim) < dim // 2
    weights = np.where(high, 2.5, 0.5)
    amps = rng.standard_normal(dim)
    lines = [f"ket v{i} = [{', '.join(f'{x:.15f}' for x in row)}]" for i, row in enumerate(basis)]
    lines.append(f"ket psi = [{', '.join(f'{x:.8f}' for x in amps)}]")
    lines.append("op H = " + " + ".join(f"{w}*proj(v{i})" for i, w in enumerate(weights)))
    lines += ["pdi P = spectral(H)", f"query sample psi P shots {shots} seed {seed}"]
    spec = tmp_path / "degenerate_max_dim.spec"
    spec.write_text("\n".join(lines) + "\n")

    decomposed = []
    decompose = dsl.spectral_decompose

    def recording(op):
        decomposed.append(decompose(op))
        return decomposed[-1]

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(dsl, "spectral_decompose", recording)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    out = io.StringIO()
    label = f"spectral(H) of a {dim}-term projector sum with two eigenspaces samples"
    with _Budget(23, label, 4.0):
        code = cli.execute(["run", str(spec), "--format", "json"], out=out)
    assert code == 0
    (obs,) = decomposed
    assert obs.eigenvalues == (2.5, 0.5)
    assert [p.rank for p in obs.pdi.projectors] == [dim // 2] * 2
    (result,) = json.loads(out.getvalue())["results"]
    assert sum(result["counts"].values()) == shots

    # the Born weights of the two eigenspaces from the kets as written
    kets = np.array([[float(f"{x:.15f}") for x in row] for row in basis])
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    psi = np.array([float(f"{x:.8f}") for x in amps])
    overlaps = np.square(kets @ (psi / np.linalg.norm(psi)))
    expected = [overlaps[high].sum(), overlaps[~high].sum()]
    reported = [result["probabilities"][key] for key in ("0", "1")]
    assert np.abs(np.subtract(reported, expected)).max() < 1e-9
