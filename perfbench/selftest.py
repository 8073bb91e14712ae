"""Self-tests of the benchmark harness.

``run.py`` runs them at the start of every run; they also run alone::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

They check the percentile rule, that latency counts from the scheduled
send time, that Poisson schedules are deterministic per seed, and that
the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import loadgen  # noqa: E402


def test_supported_percentile_needs_ten_beyond() -> None:
    assert harness.supported_percentile(19) is None
    assert harness.supported_percentile(20) == 50.0
    assert harness.supported_percentile(49) == 50.0
    assert harness.supported_percentile(50) == 80.0
    assert harness.supported_percentile(99) == 80.0
    assert harness.supported_percentile(100) == 90.0
    assert harness.supported_percentile(999) == 90.0
    assert harness.supported_percentile(1000) == 99.0
    assert harness.supported_percentile(9999) == 99.0
    assert harness.supported_percentile(10000) == 99.9
    assert harness.tail(list(range(100)), 90) == harness.percentile(range(100), 90)
    assert harness.tail(list(range(999)), 99) is None, "p99 of 999 samples must be refused"


def test_poisson_schedule_is_deterministic_per_seed() -> None:
    a = harness.poisson_schedule(harness.child_rng(7, 10), 100.0, 30.0)
    b = harness.poisson_schedule(harness.child_rng(7, 10), 100.0, 30.0)
    c = harness.poisson_schedule(harness.child_rng(8, 10), 100.0, 30.0)
    d = harness.poisson_schedule(harness.child_rng(7, 11), 100.0, 30.0)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes() and a.tobytes() != d.tobytes()
    assert len(a) == 3000 and np.all(np.diff(a) >= 0) and 0 <= a[0] and a[-1] < 30.0
    gaps = np.diff(a)
    # Exponential gaps: mean 1/rate, coefficient of variation near 1.
    assert abs(gaps.mean() - 0.01) < 0.001
    assert 0.9 < gaps.std() / gaps.mean() < 1.1


def test_same_seed_gives_identical_inputs() -> None:
    import fleet
    import stream

    z1 = harness.zipf_items(harness.child_rng(3, 4), 1 << 16, 4096)
    z2 = harness.zipf_items(harness.child_rng(3, 4), 1 << 16, 4096)
    z3 = harness.zipf_items(harness.child_rng(4, 4), 1 << 16, 4096)
    assert z1.tobytes() == z2.tobytes() != z3.tobytes()
    assert z1.min() >= 0 and z1.max() < 1 << 16
    assert stream.stream_input(3, 4096) == stream.stream_input(3, 4096) != stream.stream_input(4, 4096)
    assert fleet.shard_frames(3, 3, 256) == fleet.shard_frames(3, 3, 256) != fleet.shard_frames(4, 3, 256)
    assert fleet.basket_text(3, 50) == fleet.basket_text(3, 50) != fleet.basket_text(4, 50)


def _slow_server(listener: socket.socket, delay: float, count: int) -> None:
    """Reply OK to ``count`` framed requests, ``delay`` seconds each, in order."""
    conn, _ = listener.accept()
    with conn:
        buf = b""
        for _ in range(count):
            while len(buf) < 4 or len(buf) < 4 + struct.unpack(">I", buf[:4])[0]:
                buf += conn.recv(65536)
            length = struct.unpack(">I", buf[:4])[0]
            buf = buf[4 + length:]
            time.sleep(delay)
            conn.sendall(loadgen.frame(b"\x00"))


def test_latency_counts_from_the_scheduled_send_time() -> None:
    delay, offsets = 0.05, np.array([0.0, 0.005, 0.010])
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        server = threading.Thread(target=_slow_server, args=(listener, delay, len(offsets)))
        server.start()
        sched = loadgen.Schedule(offsets, ["ping"] * 3, [loadgen.frame(b"\x07")] * 3)
        [res], t0 = loadgen.run_open_loop("127.0.0.1", port, [sched], lead_s=0.05, drain_s=5)
        server.join(timeout=5)
        assert not server.is_alive()
    assert res.error is None and res.ok.all()
    assert np.allclose(res.due, t0 + offsets)
    lat = res.latencies(miss_s=99.0)
    assert np.array_equal(lat, res.received - res.due)
    # Open loop: every request was sent on time although the server was
    # still busy, so the k-th waits behind k earlier replies.
    assert np.all(res.lag < 0.02)
    for k in range(3):
        assert lat[k] >= (k + 1) * delay - offsets[k] - 1e-3, (k, lat[k])
    # A request that gets no reply counts as a miss, not as a fast answer.
    res.replies[2] = None
    assert res.latencies(miss_s=99.0)[2] == 99.0


def run_all() -> None:
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()


if __name__ == "__main__":
    harness.prepare_environment()
    run_all()
    print("selftest: all passed")
