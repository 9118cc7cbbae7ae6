"""Workload definitions shared by the harness (run.py) and the worker.

A workload is a list of `lflow` command lines that one fresh process
drives through `lflow.cli.main`, plus the sizes the checks need.  The
protocol parameters (M, K, escape radius, window) are the ones the
workload is named after; only seed, pixel and label counts are scaled
so that one repetition fits several times into a run.
"""

from __future__ import annotations

CATALOG = "data/fixture_allcurves.txt"
K = 10  # protocol iteration count, the CLI default

# Scaled sizes.  "full" is what the benchmark measures; "tiny" is the
# self-test's pass through the same code.
SIZES = {
    "full": {
        "reproduce_seeds": 300,
        "l11a1_pixels": (64, 48),
        "poly_pixels": (640, 360),
        "table_labels": 6,
    },
    "tiny": {
        "reproduce_seeds": 40,
        "l11a1_pixels": (16, 12),
        "poly_pixels": (48, 27),
        "table_labels": 2,
    },
}

REPRODUCE_CURVES = 30  # sample1 preset size
TABLE_M = 10000
SAMPLE2_SIZE = 70

POLY_MAPS = (
    ("nonic:11a1", (-1.2, 1.2, -1.2, 1.2), 100),
    ("nonic:33a1", (-1.2, 1.2, -1.2, 1.2), 100),
    ("nonic:37a1", (-1.2, 1.2, -1.2, 1.2), 100),
    ("nonic:389a1", (-1.2, 1.2, -1.2, 1.2), 100),
    ("exp:0.35+0.2j", (-3.0, 3.0, -3.0, 3.0), 50),
    ("exp:1", (-3.0, 3.0, -3.0, 3.0), 50),
)

WORKLOADS = ("reproduce_sample1", "render_l11a1", "render_poly", "tables_sample2")


def common_flags(cache_dir: str, seed: int, threads: int) -> list[str]:
    return [
        "--catalog", CATALOG,
        "--cache-dir", cache_dir,
        "--threads", str(threads),
        "--master-seed", str(seed),
    ]


def images(name: str, size: str) -> list[tuple[str, tuple, float, int, int]]:
    """(selector, window or None, radius or None, width, height) per image."""
    if name == "render_l11a1":
        w, h = SIZES[size]["l11a1_pixels"]
        return [("11a1", None, None, w, h)]
    w, h = SIZES[size]["poly_pixels"]
    return [(sel, win, rad, w, h) for sel, win, rad in POLY_MAPS]


def op_count(name: str, size: str) -> int:
    """Operations per repetition: curves, images or tables."""
    if name == "reproduce_sample1":
        return REPRODUCE_CURVES
    if name == "tables_sample2":
        return SIZES[size]["table_labels"]
    return len(images(name, size))


def pick_labels(manifest_text: str, count: int) -> list[str]:
    """`count` labels spread evenly over the conductor-sorted manifest."""
    labels = [ln.strip() for ln in manifest_text.splitlines() if ln.strip()]
    return [labels[i * len(labels) // count] for i in range(min(count, len(labels)))]


def image_file(index: int) -> str:
    return f"image{index}.pgm"


def render_argv(image, index: int, out_dir: str, flags: list[str]) -> list[str]:
    selector, window, radius, w, h = image
    argv = ["render", selector, "--width", str(w), "--height", str(h),
            "-o", f"{out_dir}/{image_file(index)}"]
    if window is not None:
        argv += ["--window", *(repr(x) for x in window), "--radius", repr(radius)]
    return argv + flags
