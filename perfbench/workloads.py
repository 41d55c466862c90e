"""The four benchmark workloads: seeded inputs, one timed operation, checks.

A workload is built from the benchmark seed alone; building it generates and
validates its inputs and writes the config files the CLI reads.  ``op(i)``
is the timed operation and returns ``(units, output)``; ``check(i, output)``
returns a list of failure messages (empty when the output is right) and runs
outside the timer.  ``finish()`` adds the gates that pool every operation of
a run.  Checks test properties of the results, not bytes, so they hold under
any random-stream layout.
"""

import contextlib
import io
import json
import math

import numpy as np

import setkf
import setkf.cli

# tracking_mc: the singer scenario of acceptance criterion 4
SINGER_Z_SCALE = 0.52
SINGER_HORIZON = 100
SINGER_BURN_IN = 20  # singer_scenario's default burn-in
TRACKING_RUNS = 10

# scalar_compare: the criterion-6 plant and rate
SCALAR_MODEL = {"A": [[0.8]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "Sigma0": [[1.0]]}
COMPARE_RATE = 0.5
COMPARE_HORIZON = 1500
COMPARE_RUNS = 2
COMPARE_BURN_IN = 200

# design_near_unit: (n, m) shapes cycled over the plants
DESIGN_SHAPES = ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2))
DESIGN_PLANTS = 24  # more than one run gets through, so none repeats
DESIGN_CANDIDATES = 4
DESIGN_DELTA0_SCALE = 2.0  # Delta0 = 2 X0: feasible, and active on the ray
DESIGN_ANALYZE_Y = 0.5

# certificate_sweep: criterion 7's family of random stable plants
SWEEP_PLANTS = 300
SWEEP_N_MAX, SWEEP_M_MAX, SWEEP_RHO_MAX = 5, 4, 0.9

LOEWNER_TOL = 1e-8


class OpFailed(Exception):
    """The CLI exited non-zero."""


def cli(args):
    """One in-process ``setkf`` command; returns what it wrote to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = setkf.cli.main(args)
    if code != 0:
        raise OpFailed(f"setkf {args[0]} exited {code}")
    return buf.getvalue()


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def report(text):
    """quantity,value CSV as a dict of floats."""
    header, rows = csv_rows(text)
    if header != ["quantity", "value"]:
        raise ValueError(f"unexpected report header {header}")
    return {name: float(value) for name, value in rows}


def report_matrix(rep, name, n):
    return np.array([[rep[f"{name}[{i}][{j}]"] for j in range(n)] for i in range(n)])


def loewner_leq(X, Y):
    diff = 0.5 * (Y - X + (Y - X).T)
    scale = max(1.0, float(np.abs(Y).max()))
    return float(np.linalg.eigvalsh(diff)[0]) >= -LOEWNER_TOL * scale


def spd(rng, n, scale=1.0, ridge=0.2):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T + ridge * np.eye(n))


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def van_der_corput(i):
    """Low-discrepancy fraction in [0, 1): any prefix covers [0, 1) evenly."""
    x, denom = 0.0, 1.0
    while i:
        i, digit = divmod(i, 2)
        denom *= 2.0
        x += digit / denom
    return x


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


class TrackingMC:
    """``setkf singer --z-scale 0.52``: many short clset runs, one seed per op."""

    unit = "run-steps"

    def __init__(self, seed, workdir):
        self.runs = TRACKING_RUNS
        self.base_seed = int(np.random.default_rng(seed).integers(1 << 30))
        scn = setkf.singer_scenario(1.0, 0.01, 5.0, z_scale=SINGER_Z_SCALE, runs=1)
        bounds = setkf.closed_loop_rate_bounds(scn.model, SINGER_Z_SCALE * np.eye(3))
        self.gamma_low, self.gamma_upper = bounds.gamma_low, bounds.gamma_upper
        self.ops = 0
        self.rate_sum = 0.0
        self.mse11_sum = np.zeros(SINGER_HORIZON)
        self.P11_sum = np.zeros(SINGER_HORIZON)

    def args(self, i, runs):
        return [
            "singer", "--z-scale", str(SINGER_Z_SCALE), "--runs", str(runs),
            "--horizon", str(SINGER_HORIZON), "--seed", str(self.base_seed + i),
        ]

    def warm_up(self):
        cli(self.args(-1, 1))

    def op(self, i):
        return self.runs * SINGER_HORIZON, cli(self.args(i, self.runs))

    def _gates(self, rate, ratios, runs):
        """Rate inside [gamma_low, gamma_upper] and criterion 4's position
        consistency gate, both widened by a slack derived from ``runs``."""
        fails = []
        rate_slack = 4.0 * 0.5 / math.sqrt(runs * SINGER_HORIZON)
        if not self.gamma_low - rate_slack <= rate <= self.gamma_upper + rate_slack:
            fails.append(
                f"rate {rate:.4f} outside [{self.gamma_low:.4f}, {self.gamma_upper:.4f}]"
                f" +- {rate_slack:.4f}"
            )
        # criterion 4's 0.05 plus five standard errors of a mean of ``runs``
        # squared Gaussian errors, wide enough for 80 skewed per-step tests
        ratio_slack = 0.05 + 5.0 * math.sqrt(2.0 / runs)
        ratios = np.atleast_1d(ratios)
        if not np.all(np.abs(ratios - 1.0) <= ratio_slack):
            fails.append(
                f"consistency ratio range [{ratios.min():.3f}, {ratios.max():.3f}]"
                f" outside 1 +- {ratio_slack:.3f}"
            )
        return fails

    def check(self, i, out):
        header, rows = csv_rows(out)
        if header != ["k", "rate_mean", "P_trace_mean", "mse_mean", "P11_mean", "mse11_mean"]:
            return [f"unexpected header {header}"]
        data = np.array(rows, dtype=float)
        if data.shape != (SINGER_HORIZON, 6) or not np.all(np.isfinite(data)):
            return ["malformed monte-carlo CSV"]
        rate = float(data[:, 1].mean())
        mse11, P11 = data[:, 5], data[:, 4]
        self.ops += 1
        self.rate_sum += rate
        self.mse11_sum += mse11
        self.P11_sum += P11
        # one op has few runs, so it gates the ratio averaged over the tail;
        # finish() gates every tail step on the pooled runs
        tail = slice(SINGER_BURN_IN, SINGER_HORIZON)
        return self._gates(rate, mse11[tail].sum() / P11[tail].sum(), self.runs)

    def finish(self):
        if not self.ops:
            return []
        tail = slice(SINGER_BURN_IN, SINGER_HORIZON)
        ratios = self.mse11_sum[tail] / self.P11_sum[tail]
        return self._gates(self.rate_sum / self.ops, ratios, self.ops * self.runs)


class ScalarCompare:
    """``setkf compare --target-rate 0.5`` on the criterion-6 scalar plant."""

    unit = "run-steps"

    def __init__(self, seed, workdir):
        self.runs = COMPARE_RUNS
        self.base_seed = int(np.random.default_rng(seed).integers(1 << 30))
        self.config = write_json(workdir / "scalar.json", {"model": SCALAR_MODEL})
        self.model = setkf.model_from_dict(SCALAR_MODEL)
        self.traces = {"clset": [], "olset": [], "random": []}
        self.gamma_low = {}

    def args(self, i, runs):
        return [
            "compare", "--config", self.config, "--target-rate", str(COMPARE_RATE),
            "--horizon", str(COMPARE_HORIZON), "--runs", str(runs),
            "--burn-in", str(COMPARE_BURN_IN), "--seed", str(self.base_seed + i),
        ]

    def warm_up(self):
        cli(self.args(-1, 1))

    def op(self, i):
        return 4 * self.runs * COMPARE_HORIZON, cli(self.args(i, self.runs))

    def check(self, i, out):
        header, rows = csv_rows(out)
        if header != ["scheduler", "param", "empirical_rate", "steady_trace"]:
            return [f"unexpected header {header}"]
        names = [r[0] for r in rows]
        if names != ["clset", "olset", "periodic", "random"]:
            return [f"unexpected schedulers {names}"]
        vals = {r[0]: [float(x) for x in r[1:]] for r in rows}
        fails = []
        # trigger decisions inherit the plant's AR(1) correlation (A = 0.8),
        # which inflates the variance of a rate by at most (1 + a) / (1 - a)
        a = SCALAR_MODEL["A"][0][0]
        slack = 4.0 * 0.5 * math.sqrt((1 + a) / (1 - a) / (self.runs * COMPARE_HORIZON))
        theta_z = vals["clset"][0]
        if theta_z not in self.gamma_low:
            self.gamma_low[theta_z] = setkf.closed_loop_rate_bounds(
                self.model, [[theta_z]]
            ).gamma_low
        rate_bounds = {
            "clset": (self.gamma_low[theta_z], COMPARE_RATE),
            "olset": (COMPARE_RATE, COMPARE_RATE),
            "periodic": (COMPARE_RATE, COMPARE_RATE),
            "random": (COMPARE_RATE, COMPARE_RATE),
        }
        for name, (lo, hi) in rate_bounds.items():
            rate = vals[name][1]
            if not lo - slack <= rate <= hi + slack:
                fails.append(f"{name} rate {rate:.4f} outside [{lo:.4f}, {hi:.4f}] +- {slack:.4f}")
        trace = {k: v[2] for k, v in vals.items()}
        if not 0.0 < trace["clset"] < trace["olset"] < trace["random"]:
            fails.append(f"steady traces out of order {trace}")
        for name in self.traces:
            self.traces[name].append(trace[name])
        return fails

    def finish(self):
        """Criterion 6 across the run's ops: gaps exceed two standard errors."""
        n = len(self.traces["clset"])
        if n < 2:
            return []
        mean = {k: float(np.mean(v)) for k, v in self.traces.items()}
        se = {k: float(np.std(v, ddof=1)) / math.sqrt(n) for k, v in self.traces.items()}
        fails = []
        for a, b in (("clset", "olset"), ("olset", "random")):
            if not mean[b] - mean[a] > 2.0 * math.hypot(se[a], se[b]):
                fails.append(f"{a} {mean[a]:.4f} vs {b} {mean[b]:.4f}: gap not > 2 stderr")
        return fails


class DesignNearUnit:
    """``setkf design`` (open and closed loop) and ``setkf analyze`` on stable
    plants with rho(A) in [0.99, 0.999].  Three ops per plant."""

    unit = "instances"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.plants = []
        for j in range(DESIGN_PLANTS):
            n, m = DESIGN_SHAPES[j % len(DESIGN_SHAPES)]
            # 1 - rho log-uniform over [1e-3, 1e-2]; prefixes stay balanced
            rho = 1.0 - 10.0 ** (-2.0 - van_der_corput(j + 1))
            model, X0 = self._plant(rng, n, m, rho)
            delta0 = DESIGN_DELTA0_SCALE * X0
            base = {"model": model.to_dict(), "delta0": delta0.tolist()}
            self.plants.append(
                {
                    "model": model,
                    "X0": X0,
                    "delta0": delta0,
                    "open": write_json(workdir / f"design{j}.json", base),
                    "closed": write_json(
                        workdir / f"design{j}_cl.json", {**base, "closed_loop": True}
                    ),
                    "analyze": write_json(
                        workdir / f"analyze{j}.json",
                        {
                            "model": model.to_dict(),
                            "trigger": {
                                "variant": "open_loop",
                                "Y": (DESIGN_ANALYZE_Y * np.eye(m)).tolist(),
                            },
                        },
                    ),
                }
            )
        self.warm = write_json(
            workdir / "design_warm.json",
            {"model": SCALAR_MODEL, "delta0": [[1.5]]},
        )

    @staticmethod
    def _plant(rng, n, m, rho):
        """A = rho * orthogonal, C = m orthonormal rows, Q = R = Sigma0 = I.

        Of DESIGN_CANDIDATES draws, keeps the one whose always-transmit
        filter contracts fastest: a barely observed slow mode would make
        one plant cost ten times the others.
        """
        best = None
        for _ in range(DESIGN_CANDIDATES):
            A = rho * orthogonal(rng, n)
            C = orthogonal(rng, n)[:m]
            model = setkf.validate_model(A, C, np.eye(n), np.eye(m), np.eye(n))
            X0 = setkf.fixed_point(setkf.RiccatiMap(model, model.R))
            K = np.linalg.solve(C @ X0 @ C.T + np.eye(m), C @ X0 @ A.T).T
            filter_rho = np.abs(np.linalg.eigvals(A - K @ C)).max()
            if best is None or filter_rho < best[0]:
                best = (filter_rho, model, X0)
        return best[1], best[2]

    def warm_up(self):
        cli(["design", "--config", self.warm])

    def _call(self, i):
        plant = self.plants[(i // 3) % len(self.plants)]
        return plant, ("open", "closed", "analyze")[i % 3]

    def op(self, i):
        plant, kind = self._call(i)
        cmd = "analyze" if kind == "analyze" else "design"
        return 1.0 / 3.0, cli([cmd, "--config", plant[kind]])

    def check(self, i, out):
        plant, kind = self._call(i)
        rep = report(out)
        model, delta0 = plant["model"], plant["delta0"]
        fails = []
        if kind == "analyze":
            n = model.n
            X0 = report_matrix(rep, "X0", n)
            lower = report_matrix(rep, "X_lower_ol", n)
            upper = report_matrix(rep, "X_upper_ol", n)
            if not (loewner_leq(X0, lower) and loewner_leq(lower, upper)):
                fails.append("X0 <= X_lower <= X_upper violated")
            if not loewner_leq(plant["X0"], X0) or not loewner_leq(X0, plant["X0"]):
                fails.append("analyze X0 differs from the always-transmit fixed point")
            return fails
        theta = rep["theta"]
        B = np.eye(model.m)
        if not setkf.feasibility_check(model, theta * B, delta0):
            fails.append(f"{kind} design: theta {theta:.6g} infeasible")
        if setkf.feasibility_check(model, theta * (1.0 - 1e-6) * B, delta0):
            fails.append(f"{kind} design: theta*(1-1e-6) still feasible")
        if not 0.0 < rep["gamma_achieved"] < 1.0:
            fails.append(f"{kind} design: rate {rep['gamma_achieved']} outside (0, 1)")
        return fails

    def finish(self):
        return []


class CertificateSweep:
    """Criterion 7's random plants: analyze (open and closed loop), the LMI
    certificate against the fixed-point oracle, sequential drop probability
    and ``design export-lmi``, one plant per op."""

    unit = "instances"

    def __init__(self, seed, workdir, plants=SWEEP_PLANTS):
        rng = np.random.default_rng(seed)
        self.plants = []
        for j in range(plants):
            # every (n, m) shape equally often, so each pool has the same mix
            model = self._plant(rng, 1 + j % SWEEP_N_MAX, 1 + (j // SWEEP_N_MAX) % SWEEP_M_MAX)
            Y = spd(rng, model.m, scale=float(rng.uniform(0.05, 2.0)))
            W = setkf.analysis.drop_noise(model.R, Y)
            X_upper = setkf.fixed_point(setkf.RiccatiMap(model, W))
            # u in [0.3, 2], spread evenly, so each pool has the same share
            # of feasible bounds
            u = 0.3 + 1.7 * van_der_corput(j + 1)
            delta0 = u * X_upper + 0.1 * spd(rng, model.n)
            mdict = model.to_dict()
            self.plants.append(
                {
                    "model": model,
                    "Y": Y,
                    "delta0": delta0,
                    "open": write_json(
                        workdir / f"ol{j}.json",
                        {"model": mdict, "trigger": {"variant": "open_loop", "Y": Y.tolist()}},
                    ),
                    "closed": write_json(
                        workdir / f"cl{j}.json",
                        {"model": mdict, "trigger": {"variant": "closed_loop", "Z": Y.tolist()}},
                    ),
                    "lmi": write_json(
                        workdir / f"lmi{j}.json", {"model": mdict, "delta0": delta0.tolist()}
                    ),
                }
            )
        self.feasible = 0
        self.certified = 0

    @staticmethod
    def _plant(rng, n, m):
        while True:
            A = rng.normal(size=(n, n))
            A *= rng.uniform(0.3, 1.0) * SWEEP_RHO_MAX / np.abs(np.linalg.eigvals(A)).max()
            C = rng.normal(size=(m, n))
            try:
                return setkf.validate_model(A, C, spd(rng, n), spd(rng, m), spd(rng, n))
            except setkf.ModelValidationError:
                continue

    def warm_up(self):
        self.op(0)

    def op(self, i):
        p = self.plants[i % len(self.plants)]
        model, Y, delta0 = p["model"], p["Y"], p["delta0"]
        out = {
            "open": cli(["analyze", "--config", p["open"]]),
            "closed": cli(["analyze", "--config", p["closed"]]),
            "lmi": setkf.lmi_feasible(model, Y, delta0),
            "feasible": setkf.feasibility_check(model, Y, delta0),
        }
        steady = setkf.steady_state(model)
        out["drop"] = [setkf.sequential_drop_probability(steady, model, Y, l) for l in (1, 3)]
        out["export"] = cli(["design", "export-lmi", "--config", p["lmi"]])
        return 1, out

    def check(self, i, out):
        p = self.plants[i % len(self.plants)]
        model = p["model"]
        n, m = model.n, model.m
        fails = []
        if out["lmi"] != out["feasible"]:
            fails.append(f"lmi_feasible {out['lmi']} != feasibility_check {out['feasible']}")
        if out["feasible"]:
            self.feasible += 1
            self.certified += int(out["lmi"] is True)
        ol = report(out["open"])
        gamma = ol["gamma"]
        if not ol["rate_trace_lower"] - 1e-12 <= gamma <= ol["rate_trace_upper"] + 1e-12:
            fails.append(
                f"rate {gamma} outside trace bounds "
                f"[{ol['rate_trace_lower']}, {ol['rate_trace_upper']}]"
            )
        cl = report(out["closed"])
        if not 0.0 < cl["gamma_low"] <= cl["gamma_upper"] < 1.0:
            fails.append(f"closed-loop rate bounds {cl['gamma_low']}, {cl['gamma_upper']}")
        for rep, suffix in ((ol, "ol"), (cl, "cl")):
            X0 = report_matrix(rep, "X0", n)
            lower = report_matrix(rep, f"X_lower_{suffix}", n)
            upper = report_matrix(rep, f"X_upper_{suffix}", n)
            if not (loewner_leq(X0, lower) and loewner_leq(lower, upper)):
                fails.append(f"{suffix}: X0 <= X_lower <= X_upper violated")
        p1, p3 = out["drop"]
        if abs(p1 - (1.0 - gamma)) > 1e-9 or not 0.0 < p3 <= p1:
            fails.append(f"drop probabilities {p1}, {p3} against rate {gamma}")
        fails += self._check_export(out["export"], n, m)
        return fails

    @staticmethod
    def _check_export(text, n, m):
        lines = text.strip().splitlines()
        head = [
            "setkf-lmi v1",
            f"n {n} m {m}",
            f"svars {n * (n + 1) // 2} yvars {m * (m + 1) // 2}",
            f"block 1 size {2 * n + m}",
            f"block 2 size {2 * n}",
        ]
        if lines[:5] != head:
            return [f"export-lmi header {lines[:5]}"]
        n_vars = n * (n + 1) // 2 + m * (m + 1) // 2
        objective = [l for l in lines[5:] if l.startswith("OBJ ")]
        entries = [l.split() for l in lines[5:] if l.startswith("F ")]
        if len(objective) != m * (m + 1) // 2 or len(objective) + len(entries) != len(lines) - 5:
            return ["export-lmi body malformed"]
        for _, block, var, row, col, value in entries:
            size = 2 * n + m if block == "1" else 2 * n
            if not (0 <= int(var) <= n_vars and 0 <= int(row) <= int(col) < size
                    and math.isfinite(float(value))):
                return [f"export-lmi entry out of range: {block} {var} {row} {col}"]
        return []

    def finish(self):
        return []

    def layer_extras(self):
        ratio = self.certified / self.feasible if self.feasible else 0.0
        return {"design.lmi_certified_ratio": (ratio, "ratio")}


WORKLOADS = {
    "tracking_mc": TrackingMC,
    "scalar_compare": ScalarCompare,
    "design_near_unit": DesignNearUnit,
    "certificate_sweep": CertificateSweep,
}
