"""Acceptance gate: one test per shipped guarantee, one printed
pass/fail line each (run with `pytest tests/test_acceptance.py -v -s`).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from jetsid import (
    GROUND_TRUTHS,
    RnnParams,
    SimConfig,
    TrainConfig,
    bernstein_error_bound,
    bernstein_eval,
    bernstein_jet,
    build_teacher_dataset,
    empirical_risk,
    erm_risk_bound,
    estimate_modulus,
    fixed_model_risk_bound,
    io_lipschitz_bound,
    jet_poly_eval,
    linear_modulus,
    output_jet,
    output_modulus_bound,
    output_sup_bound,
    probe_risk_and_gap,
    rademacher_bound,
    sample_ensemble,
    sample_on_grid,
    sample_size_check,
    simulate,
    train,
    vc_dimension_bound,
)
from jetsid.cli import main
from jetsid.signals import EnsembleConfig, InputSpec

from oracles import (brute_bernstein, eval_closed_form, fd_output_derivatives, input_jet,
                     jet_to_bernstein, project_feasible)

T = 1.0
ENSEMBLE = EnsembleConfig("fourier", 2, 0.8, 2.0, T, rng_seed=424242)
FAST = SimConfig(step=1.0 / 512, grid_size=257)


def line(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def random_feasible(rng, n, M=1.0):
    scale = M / math.sqrt(n)
    return project_feasible(
        RnnParams(
            rng.uniform(-scale, scale, (n, n)),
            rng.uniform(-scale, scale, n),
            rng.uniform(-scale, scale, n),
            rng.uniform(-scale, scale, n),
        ),
        M,
    )


def random_input(rng):
    c = rng.uniform(-1.0, 1.0, 2)
    s = np.abs(c).sum()
    if s > 0:
        c *= min(1.0, ENSEMBLE.R / s)
    w = rng.uniform(0.3, 2.5, 2)
    slope = np.abs(c * w).sum()
    if slope > ENSEMBLE.L:
        c *= ENSEMBLE.L / slope
    return InputSpec("fourier", c, w, rng.uniform(0.0, 2 * math.pi, 2))


def test_a1_jet_derivative_oracle():
    """Output jets match finite differences of independently integrated
    trajectories (100 random configs, orders <= 4, rel. 1e-3)."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_entry0 = 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(1, 4))
        params = random_feasible(rng, n)
        spec = random_input(rng)
        jet = output_jet(params, input_jet(spec, 3)[None], 4)[0]
        worst_entry0 = max(worst_entry0, abs(jet[0] - float(params.c @ params.xi)))
        fd = fd_output_derivatives(params, lambda t: float(eval_closed_form(spec, t)))
        for ell in range(1, 5):
            rel = abs(fd[ell] - jet[ell]) / max(1.0, abs(jet[ell]))
            worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-3 and worst_entry0 <= 1e-12 and elapsed < 30.0
    line("1 jet oracle", ok,
         f"max rel dev {worst_rel:.2e}, max entry0 dev {worst_entry0:.2e}, {elapsed:.1f}s")
    assert worst_rel <= 1e-3
    assert worst_entry0 <= 1e-12
    assert elapsed < 30.0


def test_a2a_jet_round_trip_identity():
    """Round trip jet -> polynomial -> sampled -> jet recovers the jet
    (1000 random jets, k <= 12, rel. 1e-9).

    The samples are the polynomial's own Bernstein coefficients, the one
    sample vector whose degree-(k-1) lift is the polynomial itself (point
    values are not: their lift contracts derivatives of order >= 2, see
    test_bernstein.py).  Entry l is compared as a_l T^l / perm(k-1, l),
    the l-th forward difference of the samples, since the extraction
    scales its rounding error by perm(k-1, l) / T^l.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    ts = np.linspace(0.0, T, 512)
    worst = 0.0
    worst_lift = 0.0
    failures = 0
    for trial in range(1000):
        k = 2 + trial % 11
        a = rng.uniform(-1.0, 1.0, k)
        samples = jet_to_bernstein(a, T)
        lift = brute_bernstein(samples, T, ts)
        worst_lift = max(worst_lift, float(np.abs(lift - jet_poly_eval(a[None], ts)).max()))
        back = bernstein_jet(samples[None], k, T)[0]
        scale = np.array([T**ell / math.perm(k - 1, ell) for ell in range(k)])
        dev = float(np.abs((back - a) * scale).max()) / float(np.abs(a * scale).max())
        worst = max(worst, dev)
        if dev > 1e-9:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and worst_lift <= 1e-12
    line("2a jet round-trip identity", ok,
         f"max rel dev {worst:.2e} in forward-difference scale, {failures}/1000 jets above 1e-9, "
         f"max lift dev {worst_lift:.2e}, {elapsed:.1f}s "
         "(samples are the jet polynomial's Bernstein coefficients)")
    assert worst_lift <= 1e-12, (
        "the lift of the jet polynomial's Bernstein coefficients is not the polynomial "
        f"(max dev {worst_lift:.3g} on the 512-point grid)"
    )
    assert worst <= 1e-9, (
        "round trip through the lift's own samples is not the identity: the jet "
        "extracted from the Bernstein coefficients of the jet's polynomial differs "
        f"from the jet (max rel dev {worst:.3g} in forward-difference scale)"
    )


def test_a2b_projection_identity_and_error_bound():
    """Rebuilt jet polynomial equals the lift on a 512-point grid
    (1e-9), and the certified lifting error holds on 100 Lipschitz
    inputs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(78)
    ts = np.linspace(0.0, T, 512)
    worst_proj = 0.0
    for trial in range(100):
        k = 2 + trial % 11
        sig = rng.uniform(-1.0, 1.0, (1, k))
        rebuilt = jet_poly_eval(bernstein_jet(sig, k, T), ts)
        dev = float(np.abs(bernstein_eval(sig, ts, T) - rebuilt).max())
        worst_proj = max(worst_proj, dev)

    worst_slack = -math.inf
    for trial in range(100):
        spec = random_input(np.random.default_rng(20_000 + trial))
        c, w, amp = spec.coefficients, spec.frequencies, spec.phases
        L = float(np.abs(c * w).sum())
        k = (4, 9, 16, 25)[trial % 4]
        nodes = sample_on_grid([spec], k, T)
        err = float(np.abs(eval_closed_form(spec, ts) - bernstein_eval(nodes, ts, T)).max())
        margin = err - bernstein_error_bound(linear_modulus(L), k, T)
        worst_slack = max(worst_slack, margin)
    elapsed = time.perf_counter() - t0
    ok = worst_proj <= 1e-9 and worst_slack <= 1e-12 and elapsed < 10.0
    line("2b projection identity + lifting error bound", ok,
         f"max projection dev {worst_proj:.2e}, max bound margin {worst_slack:.2e}, {elapsed:.1f}s")
    assert worst_proj <= 1e-9
    assert worst_slack <= 1e-12
    assert elapsed < 10.0


def test_a3_flow_certificates():
    """Empirical i/o Lipschitz ratio, output sup norm, and output
    modulus never exceed their closed-form certificates (200 trials)."""
    t0 = time.perf_counter()
    fine = np.linspace(0.0, T, 2049)
    worst = {"lip": -math.inf, "sup": -math.inf, "mod": -math.inf}
    for trial in range(200):
        rng = np.random.default_rng(30_000 + trial)
        n = int(rng.integers(1, 4))
        params = random_feasible(rng, n)
        u1, u2 = random_input(rng), random_input(rng)
        y1 = simulate(params, [u1], T, FAST)[0]
        y2 = simulate(params, [u2], T, FAST)[0]
        du = float(np.abs(eval_closed_form(u1, fine) - eval_closed_form(u2, fine)).max())
        if du > 1e-6:
            ratio = float(np.abs(y1 - y2).max()) / du
            worst["lip"] = max(worst["lip"], ratio - io_lipschitz_bound(params, T))
        sup_bound = output_sup_bound(params, T)
        for y in (y1, y2):
            worst["sup"] = max(worst["sup"], float(np.abs(y).max()) - sup_bound)
            for delta in (0.05, 0.2, 0.5):
                worst["mod"] = max(
                    worst["mod"],
                    estimate_modulus(y[None], T, delta) - output_modulus_bound(params, T, delta),
                )
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-6 for v in worst.values()) and elapsed < 60.0
    line("3 flow certificates", ok,
         f"max margins lip {worst['lip']:.2e}, sup {worst['sup']:.2e}, "
         f"mod {worst['mod']:.2e}, {elapsed:.1f}s")
    for key, val in worst.items():
        assert val <= 1e-6, key
    assert elapsed < 60.0


TEACHER = RnnParams([[0.3]], [0.8], [0.5], [0.1])


def test_a4_realizable_recovery():
    """Teacher-student training: >= 10x risk reduction over the random
    initialization median (5 seeds), and zero risk retained from the
    teacher itself."""
    t0 = time.perf_counter()
    specs = sample_ensemble(ENSEMBLE, 64)
    dataset = build_teacher_dataset(specs, TEACHER, 4, T)

    init_risks = []
    final_risks = []
    for seed in range(5):
        rng = np.random.default_rng(40_000 + seed)
        init_risks.append(empirical_risk(random_feasible(rng, 1), dataset))
        cfg = TrainConfig(M=1.0, n=1, restarts=2, max_iters=100, rng_seed=seed)
        final_risks.append(train(dataset, cfg).risk)
    ratio = float(np.median(init_risks) / max(np.median(final_risks), 1e-300))

    retained = train(
        dataset, TrainConfig(M=1.0, n=1, restarts=1, max_iters=20, rng_seed=0), init=TEACHER
    ).risk
    elapsed = time.perf_counter() - t0
    ok = ratio >= 10.0 and retained <= 1e-9 and elapsed < 120.0
    line("4 realizable recovery", ok,
         f"median init {np.median(init_risks):.3g}, median final {np.median(final_risks):.3g} "
         f"(x{ratio:.0f}), teacher-init risk {retained:.2e}, {elapsed:.1f}s")
    assert ratio >= 10.0
    assert retained <= 1e-9
    assert elapsed < 120.0


def test_a5_risk_bound_empirical_validity():
    """Monte-Carlo risk of 50 random feasible models against the linear
    ground truth stays below the fixed-model certificate (gap measured
    on the same 32 probes) plus 3 standard errors in >= 95% of trials."""
    t0 = time.perf_counter()
    truth = GROUND_TRUTHS["linear"]()
    omega_U = linear_modulus(ENSEMBLE.L)
    omega_Y = linear_modulus(truth.output_lipschitz(ENSEMBLE.R))
    k = 6
    holds = 0
    trials = 50
    for trial in range(trials):
        rng = np.random.default_rng(50_000 + trial)
        n = int(rng.integers(1, 4))
        params = random_feasible(rng, n)
        specs = sample_ensemble(ENSEMBLE.reseeded(51_000 + trial), 32)
        risks, gaps, _ = probe_risk_and_gap(params, truth, specs, k, T, replace(FAST, grid_size=97))
        bound = fixed_model_risk_bound(omega_Y, omega_U, params, k, T, float(gaps.mean()))
        diffs = risks - gaps
        se = float(diffs.std(ddof=1) / math.sqrt(diffs.size))
        if float(risks.mean()) <= bound.total + 3.0 * se:
            holds += 1
    elapsed = time.perf_counter() - t0
    ok = holds >= math.ceil(0.95 * trials) and elapsed < 180.0
    line("5 risk bound validity", ok, f"{holds}/{trials} trials inside the bound, {elapsed:.1f}s")
    assert holds >= math.ceil(0.95 * trials)
    assert elapsed < 180.0


def test_a6_bound_formula_regression():
    """Closed-form calculators reproduce hand-derived values."""
    checks = []
    checks.append(vc_dimension_bound(1, 2) == 32)
    checks.append(vc_dimension_bound(1, 1) == 6)
    checks.append(sample_size_check(32, 1, 2) == (True, 32))
    checks.append(sample_size_check(31, 1, 2) == (False, 32))
    checks.append(sample_size_check(6, 1, 1) == (True, 6))
    est = erm_risk_bound(
        M=1.0, n=1, k=2, T=1.0, N=10**6, delta=0.1, gamma_R=1.0,
        Lbar_star_estimate=0.0, c_abs=1.0,
        omega_Y=lambda d: 0.0, omega_U=lambda d: 0.0,
    ).estimation_error
    checks.append(abs(est - 0.022761406940777197) <= 1e-9)
    rad = rademacher_bound(2.0, 32, 10**4)
    checks.append(abs(rad - 0.34335456420629556) <= 1e-9)
    fixed = fixed_model_risk_bound(
        lambda d: d, lambda d: d,
        RnnParams([[0.0]], [1.0], [1.0], [0.0]), 4, 1.0, 0.0,
    )
    checks.append(abs(fixed.total - 3.5) <= 1e-9)
    ok = all(checks)
    line("6 bound formula regression", ok, f"{sum(checks)}/{len(checks)} frozen values reproduced")
    assert all(checks)


def _pipeline_config(out_dir):
    return {
        "ensemble": {"kind": "fourier", "m_terms": 2, "R": 0.8, "L": 2.0},
        "ground_truth": {"kind": "named", "name": "linear", "params": {}},
        "k": 3,
        "T": 1.0,
        "N": 8,
        "train": {"M": 1.0, "n": 1, "restarts": 2, "max_iters": 10},
        "sim": {"step": 1.0 / 256, "grid_size": 65},
        "delta": 0.1,
        "probe_count": 4,
        "rng_seed": 11,
        "out_dir": str(out_dir),
    }


def test_a7_pipeline_determinism(tmp_path):
    """generate -> train -> evaluate twice with fixed seeds yields
    byte-identical dataset, model, and report files."""
    t0 = time.perf_counter()
    out = tmp_path / "run"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_pipeline_config(out)))

    def run_all():
        for cmd in ("generate", "train", "evaluate"):
            assert main([cmd, "--config", str(cfg_path)]) == 0

    run_all()
    files = ["dataset.json", "model.json", "report.json"]
    first = {name: (out / name).read_bytes() for name in files}
    run_all()
    same = {name: (out / name).read_bytes() == first[name] for name in files}
    elapsed = time.perf_counter() - t0
    ok = all(same.values())
    line("7 pipeline determinism", ok,
         f"byte-identical: {', '.join(f'{n}={v}' for n, v in same.items())}, {elapsed:.1f}s")
    assert all(same.values())


def test_a8_sweep_monotonicity(tmp_path):
    """k-sweep columns strictly decrease in k; N-sweep estimation term
    strictly decreases in N (sample-size condition satisfied)."""
    import csv

    t0 = time.perf_counter()

    def run_sweep(name, sweep):
        doc = _pipeline_config(tmp_path / name)
        doc["k"], doc["train"]["n"] = 2, 1
        doc["sweep"] = sweep
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        with open(tmp_path / name / "sweep.csv") as fh:
            return list(csv.DictReader(fh))

    k_rows = run_sweep("ksweep", {"param": "k", "values": [2, 4, 8, 16], "mode": "bounds_only"})
    k_ok = True
    for col in ("fixed_model.output_modulus_term", "fixed_model.input_modulus_term",
                "fixed_model.jet_truncation_term"):
        vals = [float(r[col]) for r in k_rows]
        k_ok = k_ok and all(a > b for a, b in zip(vals, vals[1:]))

    n_rows = run_sweep("nsweep", {"param": "N", "values": [100, 1000, 10000], "mode": "bounds_only"})
    est = [float(r["erm.estimation_error"]) for r in n_rows]
    n_ok = all(a > b for a, b in zip(est, est[1:]))
    size_ok = all(r["erm.sample_size_ok"] == "true" for r in n_rows)
    elapsed = time.perf_counter() - t0
    ok = k_ok and n_ok and size_ok
    line("8 sweep monotonicity", ok,
         f"k-sweep strict={k_ok}, N-sweep strict={n_ok}, sample size satisfied={size_ok}, "
         f"{elapsed:.1f}s")
    assert k_ok
    assert n_ok
    assert size_ok
