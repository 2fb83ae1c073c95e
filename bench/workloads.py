"""The three workloads: one client in a closed loop, each op checked.

The solve workloads run every stagecal command through ``stagecal.cli.main``
in a child forked from a parent that has only imported stagecal, as a CLI user
starts; no in-process cache carries over between commands. ``content-4k``
applies a solved bundle inside one long-lived process, as a playback pipeline
does. At most two processes run at once: the parent and one child.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
from stagecal import calibration, cli

import checks
import fixtures

CHILD_TIMEOUT_S = 60  # a child still running then is killed and its op fails
SCENARIOS = ("broad", "rgb-led", "monochromatic", "identity")
CONTENT_SAMPLE = 4096  # pixels per frame checked against the per-pixel reference


def cpu_seconds() -> float:
    """User plus system CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Op:
    """Timed segments of one op, plus its peak RSS and output problems."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0
        self.cpu_s = 0.0
        self.rss_kb = 0
        self.problems: list[str] = []

    @contextmanager
    def timed(self):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with self.tracer.span("bench.op") if self.tracer else nullcontext():
            yield
        self.seconds += time.perf_counter() - t0
        self.cpu_s += cpu_seconds() - cpu0


def run_cli(argv: list[str], op: Op, log: Path) -> int:
    """``stagecal.cli.main(argv)`` in a forked child; returns its exit code.

    A traced child installs the span wrappers, records ``cli.main`` under the
    parent's open op span, and sends its spans back through a pipe on exit.
    """
    tracer = op.tracer
    if tracer:
        rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.dup2(os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
            if tracer is None:
                code = cli.main(argv)
            else:
                os.close(rfd)
                tracer.forked()
                with tracer.installed(), tracer.span("cli.main"):
                    code = cli.main(argv)
                with os.fdopen(wfd, "w") as f:
                    json.dump(tracer.spans, f)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
    reaped = False
    try:
        if tracer:
            os.close(wfd)
            with os.fdopen(rfd) as f:
                payload = f.read()
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    op.rss_kb = max(op.rss_kb, usage.ru_maxrss)
    if tracer and payload:
        tracer.spans.extend(json.loads(payload))
    code = os.waitstatus_to_exitcode(status)
    if code not in (0, 1):
        print(f"stagecal {argv[0]} exited {code}:\n{log.read_text()[-2000:]}", file=sys.stderr)
    return code


def solved_broad_fixture(fixture: Path, seed: int, log: Path) -> Path:
    """``stagecal oracle`` on the broad scenario, then ``stagecal solve`` on it."""
    shutil.rmtree(fixture, ignore_errors=True)
    op = Op()
    for argv in (["oracle", "--seed", str(seed), "--scenario", "broad", "--outdir", str(fixture)],
                 ["solve", "--config", str(fixture / "config.json")]):
        if run_cli(argv, op, log) != 0:
            raise RuntimeError(f"set-up command stagecal {argv[0]} failed")
    return fixture / "out"


class FixtureSolve:
    """``stagecal oracle`` then ``stagecal solve`` on 64x96 fixtures."""

    name = "fixture-solve"

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 1])
        # two fixture seeds per scenario, so every (seed, scenario) pair recurs
        self.fixture_seeds = [int(s) for s in rng.integers(0, 2**31, 2)]
        self.work = work
        self.fixture = work / "fixture"
        self.log = work / "child.err"
        self.outputs: dict = {}

    def setup(self) -> dict:
        self.outputs.clear()
        op = self.op(0)
        if op.problems:
            raise RuntimeError(f"warm-up op failed: {op.problems}")
        return {
            "fixture_pixels": {"primaries": [32, 96], "chart": [64, 96], "black": [16, 16]},
            "fixture_seeds": self.fixture_seeds,
            "scenarios": list(SCENARIOS),
            "beta_resolution": 1024,
        }

    def op(self, i: int, tracer=None) -> Op:
        scenario = SCENARIOS[i % len(SCENARIOS)]
        seed = self.fixture_seeds[(i // len(SCENARIOS)) % len(self.fixture_seeds)]
        shutil.rmtree(self.fixture, ignore_errors=True)
        op = Op(tracer)
        with op.timed():
            oracle = run_cli(
                ["oracle", "--seed", str(seed), "--scenario", scenario, "--outdir", str(self.fixture)],
                op, self.log,
            )
            solve = run_cli(["solve", "--config", str(self.fixture / "config.json")], op, self.log)
        op.problems = checks.fixture_op(self.fixture, scenario, oracle, solve)
        if not op.problems:
            out = self.fixture / "out"
            op.problems = checks.recurring_bytes(
                self.outputs, (seed, scenario), [out / "bundle.json", out / "report.json"]
            )
        return op


class Content4k:
    """A fixed bundle applied to 3840x2160 float64 frames, one per mode."""

    name = "content-4k"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.log = work / "child.err"
        self.frames = None

    def setup(self) -> dict:
        self.frames = None  # free the previous set-up's frames first
        out = solved_broad_fixture(self.work / "fixture", self.seed, self.log)
        self.bundle = calibration.CalibrationBundle.from_json((out / "bundle.json").read_text())
        self.frames = fixtures.content_frames(self.seed)
        pixels = fixtures.FRAME_SHAPE[0] * fixtures.FRAME_SHAPE[1]
        self.sample = np.random.default_rng([self.seed, 13]).integers(0, pixels, CONTENT_SAMPLE)
        self.reference_gamut = None
        warm = self.op(0)
        if warm.problems:
            raise RuntimeError(f"warm-up op failed: {warm.problems}")
        self.reference_gamut = warm.out_of_gamut
        frame_bytes = self.frames["in_frustum"].nbytes
        return {
            "frame_shape": list(fixtures.FRAME_SHAPE),
            "frame_bytes": frame_bytes,
            # each op reads three frames and writes three; compare with the L3 size
            "op_bytes_touched": 6 * frame_bytes,
            "reference_out_of_gamut": self.reference_gamut,
        }

    def op(self, i: int, tracer=None) -> Op:
        op = Op(tracer)
        counter = calibration.GamutCounter()
        with tracer.installed() if tracer else nullcontext():
            for mode, frame in self.frames.items():
                with op.timed():
                    out = calibration.transform_content(
                        frame, mode, self.bundle, counter if mode == "in_frustum" else None
                    )
                op.problems += checks.content_sample(mode, frame, out, self.bundle, self.sample)
                del out
        op.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        op.out_of_gamut = counter.out_of_gamut
        if self.reference_gamut is not None:
            pixels = fixtures.FRAME_SHAPE[0] * fixtures.FRAME_SHAPE[1]
            op.problems += checks.gamut_count(counter, self.reference_gamut, pixels)
        return op


class CaptureSolve:
    """``stagecal solve`` on 3840x2160 noisy captures with an environment map."""

    name = "capture-solve"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.log = work / "child.err"
        self.capture = work / "capture"

    def setup(self) -> dict:
        oracle = self.work / "oracle"
        out = solved_broad_fixture(oracle, self.seed, self.log)
        self.noiseless = json.loads((out / "report.json").read_text())["errors"]["lit_m_q"]
        sizes = fixtures.build_capture_fixture(oracle, self.capture, self.seed)
        self.outputs = {}
        warm = self.op(0)
        if warm.problems:
            raise RuntimeError(f"warm-up op failed: {warm.problems}")
        return {
            "capture_pixels": [fixtures.CAPTURE_H, fixtures.CAPTURE_W],
            "env_map_pixels": [fixtures.ENV_H, 2 * fixtures.ENV_H],
            "input_file_bytes": sizes,
            "noise": fixtures.NOISE,
            "noiseless_lit_m_q_error": self.noiseless,
        }

    def op(self, i: int, tracer=None) -> Op:
        out = self.capture / "out"
        shutil.rmtree(out, ignore_errors=True)
        op = Op(tracer)
        with op.timed():
            code = run_cli(["solve", "--config", str(self.capture / "config.json")], op, self.log)
        op.problems = checks.capture_op(code, out, self.outputs, self.noiseless)
        return op


WORKLOADS = {w.name: w for w in (FixtureSolve, Content4k, CaptureSolve)}
