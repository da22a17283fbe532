"""Set-up probe: one fresh process, timed by its parent until it is ready.

Prints one JSON line once ``fingerprint.ready()`` returns, then exits.
Run from the checkout root with ``src`` on ``PYTHONPATH``.
"""

import json

import fingerprint

if __name__ == "__main__":
    print(json.dumps(fingerprint.ready()), flush=True)
