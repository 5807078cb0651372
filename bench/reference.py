"""Fixed reference work that does not touch soficlab.

The benchmark runs this as a child process between commands, like the
workload commands themselves (interpreter start, numpy import, dict and
tuple churn, a little linear algebra and JSON), so that its wall time
tracks how fast the host is running at that moment.  See harness.host_factor.
"""

import json

import numpy as np


def main() -> None:
    counts: dict = {}
    for i in range(40000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    m = np.arange(96 * 96, dtype=np.float64).reshape(96, 96) / 9216.0
    for _ in range(10):
        m = m @ m.T / 96.0
    json.loads(json.dumps(sorted(counts.items())))


if __name__ == "__main__":
    main()
