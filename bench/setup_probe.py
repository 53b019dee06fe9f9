"""Time one fresh set-up of the program, in its own interpreter.

Usage: python3 bench/setup_probe.py <src dir> <config.json>

Prints, as JSON, the seconds from the first import of ``wparab`` (which
pulls in numpy and scipy) to the end of ``load_config`` on the given
config, and the median time of the speed kernel run right after it in
the same process (see ``speed.py``).
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import wparab.cli  # noqa: E402

    wparab.cli.load_config(sys.argv[2])
    setup_s = time.perf_counter() - t0

    import speed  # noqa: E402  (bench/ is on sys.path as the script's directory)

    kernel = []
    for _ in range(3):
        k0 = time.perf_counter()
        speed.kernel()
        kernel.append(time.perf_counter() - k0)
    print(json.dumps({"setup_s": setup_s, "kernel_s": sorted(kernel)[1]}))
