"""Byte identity of every command's outputs, against a committed manifest.

`run_all(root)` builds the fixtures under `root`, runs each command of
`COMMANDS` in this process through `stagecal.cli.main` and returns one
record per command: its exit code, its stdout and stderr with `root`
masked, and every file it wrote with a SHA-256 of each. `compare` checks a
run against the manifest `golden_manifest.json`, which also records the
platform it was made on (numpy, BLAS, CPU). On that platform every byte
must match. Elsewhere, where BLAS or libm may round differently, text
(JSON, CSV, stdout and stderr) must match with its numbers masked, each
number must match within `REL_TOL` (or `ABS_TOL` near zero), and the PNG
and PFM hashes are not compared.

Regenerate the manifest after an intended output change, and list the
changed entries in CHANGES.md:

    PYTHONPATH=src python tests/golden.py

Before it writes the new manifest, it prints one verdict per command against
the old one: identical bytes, within REL_TOL/ABS_TOL (naming the files whose
bytes changed), or the first difference out of tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import re
import tempfile
import zlib
from pathlib import Path

import numpy as np

from stagecal.cli import CHANNELS, ORACLE_PATCH_PIXELS, ORACLE_PRIMARY_BLOCK, main as stagecal_main

MANIFEST = Path(__file__).with_name("golden_manifest.json")
REL_TOL = 1e-12
# a value near zero, such as an identity-scene Q entry off the diagonal, is a
# difference of values near 1 and keeps their absolute rounding, not a relative one
ABS_TOL = 1e-12
ORACLE_FIXTURES = (("broad", 3), ("rgb-led", 0), ("monochromatic", 0), ("identity", 0))
CAPTURE = "capture"  # built from the broad oracle fixture
TEXT_SUFFIXES = (".json", ".csv")

# Capture fixture: float32 PFMs of CAPTURE_W x CAPTURE_H pixels with
# multiplicative noise, uniform in [1 - NOISE, 1 + NOISE], and a 2:1 env map.
CAPTURE_W, CAPTURE_H = 384, 216
CHART_BOX = (24, 18, 360, 198)  # 6x4 cells of 56x45 pixels
ENV_H = 32
NOISE = 0.02

_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?(?![\w.])")


def _commands() -> dict:
    """Command name -> (argv with {root} for the work directory, its output directory or None)."""
    commands = {}
    for scenario, seed in ORACLE_FIXTURES:
        fx = f"{scenario}-{seed}"
        commands[f"{fx} oracle"] = (
            ["oracle", "--seed", str(seed), "--scenario", scenario, "--outdir", f"{{root}}/{fx}"],
            fx,
        )
    for fx in [f"{s}-{seed}" for s, seed in ORACLE_FIXTURES] + [CAPTURE]:
        config, solved = f"{{root}}/{fx}/config.json", f"{{root}}/{fx}.solve"
        commands[f"{fx} solve"] = (["solve", "--config", config, "--output-dir", solved], f"{fx}.solve")
        for variant in ("m-only", "m-q"):
            out = f"{fx}.{variant}"
            commands[f"{fx} simulate {variant}"] = (
                ["simulate", "--config", config, "--bundle", f"{solved}/bundle.json",
                 "--variant", variant, "--output-dir", f"{{root}}/{out}"],
                out,
            )
        commands[f"{fx} chart-error"] = (
            ["chart-error", "--target", f"{solved}/targets.csv", "--measured", f"{solved}/lit_m_q.csv"],
            None,
        )
    return commands


COMMANDS = _commands()


def platform_record() -> dict:
    """What the output bytes may depend on besides the code: numpy, BLAS, CPU."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": f"{platform.machine()} {cpu}",
        "python": platform.python_version(),
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
    }


def _file_record(path: Path) -> dict:
    data = path.read_bytes()
    record = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.suffix in TEXT_SUFFIXES:
        record.update(_text_parts(data.decode()))
    return record


def _text_parts(text: str) -> dict:
    """The text with its numbers masked, hashed, and the numbers themselves."""
    skeleton = _NUMBER.sub("#", text)
    return {
        "skeleton_sha256": hashlib.sha256(skeleton.encode()).hexdigest(),
        "numbers": [float(token) for token in _NUMBER.findall(text)],
    }


def run_command(root: Path, name: str) -> dict:
    """Run one command of COMMANDS under root; returns its record."""
    argv_template, outdir = COMMANDS[name]
    argv = [arg.format(root=root) for arg in argv_template]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = stagecal_main(argv)
    files = {}
    if outdir is not None:
        base = root / outdir
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            files[path.relative_to(base).as_posix()] = _file_record(path)
    mask = str(root)
    return {
        "exit": code,
        "stdout": stdout.getvalue().replace(mask, "<root>"),
        "stderr": stderr.getvalue().replace(mask, "<root>"),
        "files": files,
    }


def _write_pfm(path: Path, data: np.ndarray) -> None:
    h, w = data.shape[:2]
    path.write_bytes(b"PF\n%d %d\n-1.0\n" % (w, h) + np.ascontiguousarray(data[::-1], "<f4").tobytes())


def _read_pfm(path: Path) -> np.ndarray:
    _, size, scale, payload = path.read_bytes().split(b"\n", 3)
    w, h = (int(t) for t in size.split())
    dtype = "<f4" if float(scale) < 0 else ">f4"
    return np.frombuffer(payload, dtype).reshape(h, w, 3)[::-1].astype(np.float64)


def build_capture_fixture(src: Path, dst: Path) -> None:
    """Noisy float32 camera-style captures of an oracle fixture's values, w_avg from an env map."""
    rng = np.random.default_rng(11)

    def noisy(clean):
        return (clean * rng.uniform(1 - NOISE, 1 + NOISE, clean.shape)).astype(np.float32)

    def chart(patches):
        x0, y0, x1, y1 = CHART_BOX
        pw, ph = (x1 - x0) // 6, (y1 - y0) // 4
        img = np.zeros((CAPTURE_H, CAPTURE_W, 3))
        for j, value in enumerate(patches):
            r, c = divmod(j, 6)
            img[y0 + r * ph : y0 + (r + 1) * ph, x0 + c * pw : x0 + (c + 1) * pw] = value
        return img

    ps = ORACLE_PATCH_PIXELS
    centers = [((j // 6) * ps + ps // 2, (j % 6) * ps + ps // 2) for j in range(24)]
    dst.mkdir(parents=True)
    band, half = CAPTURE_W // 3, ORACLE_PRIMARY_BLOCK // 2
    oracle_primaries = _read_pfm(src / "primaries.pfm")
    primaries = np.zeros((CAPTURE_H, CAPTURE_W, 3))
    for c in range(3):
        primaries[:, c * band : (c + 1) * band] = oracle_primaries[half, c * ORACLE_PRIMARY_BLOCK + half]
    _write_pfm(dst / "primaries.pfm", noisy(primaries))
    for name in CHANNELS:
        oracle_chart = _read_pfm(src / f"chart_{name}.pfm")
        _write_pfm(dst / f"chart_{name}.pfm", noisy(chart([oracle_chart[y, x] for y, x in centers])))
    targets = np.loadtxt(src / "targets.csv", delimiter=",", skiprows=1)[:, 1:]
    _write_pfm(dst / "targets.pfm", noisy(chart(targets)))
    black = _read_pfm(src / "black.pfm")[0, 0]
    _write_pfm(dst / "black.pfm", noisy(np.broadcast_to(black, (CAPTURE_H, CAPTURE_W, 3))))
    white = targets[18] / 0.9  # a uniform environment integrates to its radiance
    _write_pfm(dst / "env.pfm", noisy(np.broadcast_to(white, (ENV_H, 2 * ENV_H, 3))))

    x0, y0, x1, y1 = CHART_BOX
    corners = [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]
    config = json.loads((src / "config.json").read_text())
    config.update({
        "primaries": {
            "image": "primaries.pfm",
            "rois": {n: [c * band + 24, 58, 80, 100] for c, n in enumerate(CHANNELS)},
        },
        "channel_charts": {n: {"image": f"chart_{n}.pfm", "corners": corners, "inset": 0.25} for n in CHANNELS},
        "targets": {"image": "targets.pfm", "corners": corners, "inset": 0.25},
        "black_level": {"image": "black.pfm", "roi": [142, 58, 100, 100]},
        "w_avg": {"mode": "env_map", "path": "env.pfm", "facing": [0.0, 0.0, 1.0]},
    })
    (dst / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))


def run_all(root: Path) -> dict:
    """Every command of COMMANDS, in order, under root; the capture fixture is built on the way."""
    records = {}
    for name in COMMANDS:
        if name == f"{CAPTURE} solve":
            scenario, seed = ORACLE_FIXTURES[0]
            build_capture_fixture(root / f"{scenario}-{seed}", root / CAPTURE)
        records[name] = run_command(root, name)
    return {"platform": platform_record(), "commands": records}


def _text_mismatch(want: dict, got: dict) -> str | None:
    if want["skeleton_sha256"] != got["skeleton_sha256"]:
        return "text differs apart from its numbers"
    if len(want["numbers"]) != len(got["numbers"]):
        return f"{len(got['numbers'])} numbers, expected {len(want['numbers'])}"
    for i, (a, b) in enumerate(zip(want["numbers"], got["numbers"])):
        if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"number {i} is {b!r}, expected {a!r}"
    return None


def compare(want: dict, got: dict, exact: bool) -> list[str]:
    """Every difference of one command's record from the manifest's; [] when it matches."""
    problems = []
    if want["exit"] != got["exit"]:
        problems.append(f"exit {got['exit']}, expected {want['exit']}")
    for stream in ("stdout", "stderr"):
        a, b = want[stream], got[stream]
        problem = (a != b and "differs") if exact else _text_mismatch(_text_parts(a), _text_parts(b))
        if problem:
            problems.append(f"{stream}: {problem}: {b!r}, expected {a!r}")
    if sorted(want["files"]) != sorted(got["files"]):
        problems.append(f"files {sorted(got['files'])}, expected {sorted(want['files'])}")
    for name in sorted(set(want["files"]) & set(got["files"])):
        a, b = want["files"][name], got["files"][name]
        if exact:
            problem = a["sha256"] != b["sha256"] and "sha256 differs"
        else:
            problem = _text_mismatch(a, b) if name.endswith(TEXT_SUFFIXES) else None
        if problem:
            problems.append(f"{name}: {problem}")
    return problems


def verdict(want: dict | None, got: dict) -> str:
    """How a command's new record differs from its old manifest record, in one line."""
    if want is None:
        return "new command"
    if not compare(want, got, exact=True):
        return "identical bytes"
    problems = compare(want, got, exact=False)
    if problems:
        return f"out of tolerance: {problems[0]}"
    files = sorted(got["files"].items())
    changed = [name for name, record in files if want["files"][name]["sha256"] != record["sha256"]]
    changed += [stream for stream in ("stdout", "stderr") if want[stream] != got[stream]]
    return f"within REL_TOL/ABS_TOL, bytes changed: {', '.join(changed)}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_all(Path(tmp))
    old = json.loads(MANIFEST.read_text())["commands"] if MANIFEST.exists() else {}
    for name, record in manifest["commands"].items():
        print(f"{name}: {verdict(old.get(name), record)}")
    text = json.dumps(manifest, indent=1, sort_keys=True)
    # each list of numbers on one line: a line per number would double the file
    text = re.sub(r"\[\n\s*([-+.\deE,\s]*?)\n\s*\]", lambda m: "[" + re.sub(r",\s+", ", ", m[1]) + "]", text)
    MANIFEST.write_text(text + "\n")
    print(f"wrote {MANIFEST} ({len(manifest['commands'])} commands)")


if __name__ == "__main__":
    main()
