"""Benchmark inputs built with numpy alone, so set-up never runs stagecal code.

The capture fixture upsamples an oracle fixture (written by a forked
``stagecal oracle``) to camera resolution; content frames are seeded noise.
PFM files are read and written here by a small independent codec, which the
output checks also use.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

CHANNELS = ("red", "green", "blue")
WHITE_INDEX = 18
WHITE_REFLECTANCE = 0.9

FRAME_SHAPE = (2160, 3840, 3)  # one 4K UHD frame
CAPTURE_W, CAPTURE_H = 3840, 2160
ENV_H = 1024  # lat-long map, width 2 * ENV_H
NOISE = 0.02  # multiplicative capture noise, uniform in [1 - NOISE, 1 + NOISE]

# Chart placement in the capture frame: 6x4 cells of 560x450 pixels.
CHART_BOX = (240, 180, 3600, 1980)
BLACK_ROI = [1420, 580, 1000, 1000]

# Oracle fixture layout (stagecal.cli.ORACLE_PATCH_PIXELS / ORACLE_PRIMARY_BLOCK).
ORACLE_PATCH = 16
ORACLE_BLOCK = 32


def write_pfm(path, data: np.ndarray) -> int:
    """Write (h, w, 3) data as little-endian PFM; returns the file size.

    The file is synced before returning, so its write-back happens during
    set-up and not under the timed ops that read it.
    """
    h, w = data.shape[:2]
    header = b"PF\n%d %d\n-1.0\n" % (w, h)
    payload = np.ascontiguousarray(data[::-1], dtype="<f4")
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.data)
        f.flush()
        os.fsync(f.fileno())
    return len(header) + payload.nbytes


def read_pfm(path) -> np.ndarray:
    """Read a 3-channel PFM as float64, rows top to bottom."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"PF":
            raise ValueError(f"{path}: not a color PFM")
        w, h = (int(t) for t in f.readline().split())
        dtype = "<f4" if float(f.readline()) < 0 else ">f4"
        data = np.frombuffer(f.read(), dtype=dtype)
    return data.reshape(h, w, 3)[::-1].astype(np.float64)


def read_chart_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def oracle_values(src: Path) -> dict:
    """The constant values an oracle fixture paints: SL columns, charts, targets, black."""
    prim = read_pfm(src / "primaries.pfm")
    half, ps = ORACLE_BLOCK // 2, ORACLE_PATCH
    centers = [((j // 6) * ps + ps // 2, (j % 6) * ps + ps // 2) for j in range(24)]
    charts = {}
    for name in CHANNELS:
        chart = read_pfm(src / f"chart_{name}.pfm")
        charts[name] = np.array([chart[y, x] for y, x in centers])
    return {
        "sl": np.stack([prim[half, c * ORACLE_BLOCK + half] for c in range(3)], axis=1),
        "charts": charts,
        "targets": read_chart_csv(src / "targets.csv"),
        "black": read_pfm(src / "black.pfm")[0, 0],
    }


def _noisy(rng: np.random.Generator, clean: np.ndarray) -> np.ndarray:
    out = rng.random(clean.shape, dtype=np.float32)
    out *= np.float32(2 * NOISE)
    out += np.float32(1 - NOISE)
    out *= clean
    return out


def _chart_image(patches: np.ndarray) -> np.ndarray:
    x0, y0, x1, y1 = CHART_BOX
    pw, ph = (x1 - x0) // 6, (y1 - y0) // 4
    img = np.zeros((CAPTURE_H, CAPTURE_W, 3), dtype=np.float32)
    for j, value in enumerate(patches):
        r, c = divmod(j, 6)
        img[y0 + r * ph : y0 + (r + 1) * ph, x0 + c * pw : x0 + (c + 1) * pw] = value
    return img


def build_capture_fixture(src: Path, dst: Path, seed: int) -> dict:
    """Camera-resolution fixture from an oracle fixture; returns file sizes.

    Every capture carries seeded multiplicative noise, so patch and ROI
    trimmed means sort real data, and w_avg comes from an environment map
    instead of the white patch.
    """
    dst.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    values = oracle_values(src)
    sizes = {}
    band = CAPTURE_W // 3
    prim = np.zeros((CAPTURE_H, CAPTURE_W, 3), dtype=np.float32)
    for c in range(3):
        prim[:, c * band : (c + 1) * band] = values["sl"][:, c]
    sizes["primaries.pfm"] = write_pfm(dst / "primaries.pfm", _noisy(rng, prim))
    del prim
    for name in CHANNELS:
        img = _noisy(rng, _chart_image(values["charts"][name]))
        sizes[f"chart_{name}.pfm"] = write_pfm(dst / f"chart_{name}.pfm", img)
    img = _noisy(rng, _chart_image(values["targets"]))
    sizes["targets.pfm"] = write_pfm(dst / "targets.pfm", img)
    del img
    black = np.broadcast_to(values["black"].astype(np.float32), (CAPTURE_H, CAPTURE_W, 3))
    sizes["black.pfm"] = write_pfm(dst / "black.pfm", _noisy(rng, black))
    # A uniform environment of radiance w integrates to w over the hemisphere.
    w_avg = values["targets"][WHITE_INDEX] / WHITE_REFLECTANCE
    env = np.broadcast_to(w_avg.astype(np.float32), (ENV_H, 2 * ENV_H, 3))
    sizes["env.pfm"] = write_pfm(dst / "env.pfm", _noisy(rng, env))

    x0, y0, x1, y1 = CHART_BOX
    corners = [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]
    config = json.loads((src / "config.json").read_text())
    config.update(
        {
            "primaries": {
                "image": "primaries.pfm",
                "rois": {n: [c * band + 240, 580, 800, 1000] for c, n in enumerate(CHANNELS)},
            },
            "channel_charts": {
                n: {"image": f"chart_{n}.pfm", "corners": corners, "inset": 0.25} for n in CHANNELS
            },
            "targets": {"image": "targets.pfm", "corners": corners, "inset": 0.25},
            "black_level": {"image": "black.pfm", "roi": BLACK_ROI},
            "w_avg": {"mode": "env_map", "path": "env.pfm", "facing": [0.0, 0.0, 1.0]},
            "output_dir": "out",
        }
    )
    (dst / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
    return sizes


def content_frames(seed: int) -> dict:
    """Background, lighting and footage frames for one stage frame.

    Values span [0, 0.8), so the in-frustum transform pushes some pixels
    past the display maximum.
    """
    rng = np.random.default_rng([seed, 11])
    frames = {}
    for mode in ("in_frustum", "out_of_frustum", "post"):
        frame = rng.random(FRAME_SHAPE)
        frame *= 0.8
        frames[mode] = frame
    return frames
