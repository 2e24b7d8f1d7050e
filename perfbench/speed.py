"""Machine-speed probes that scale the benchmark's end-to-end times.

The shared machines this benchmark runs on change speed by 1.5-2x in phases
of a fraction of a second to tens of minutes, because other tenants contend
for the same caches, memory and host. A tight arithmetic loop does not see
those phases; work of the same kind as the timed step does. Each probe here
is a fixed pass of such work, built from the standard library and
``cryptography`` only, never from the package, so a change to the program
cannot move a probe:

- ``AllocProbe``: JSON, base64 and grouping over 20,000 small records, which
  slows with allocation-heavy steps (every set-up, loopback sessions).
- ``HttpProbe``: loopback HTTP POSTs, one server thread per request, each
  unwrapping an RSA-3072 OAEP key and opening an AES-GCM blob, which slows
  with the networked session.

``run.py`` makes a few passes of each probe before every set-up and
multiplies the run's median wall time of a step by
``REFERENCE_S / median(pass times)`` of its probe. The result reads as the
time the step would take on a machine where one pass takes ``REFERENCE_S``.
"""

from __future__ import annotations

import base64
import gc
import json
import os
import random
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# About one pass of either probe on a 2-vCPU shared Xeon VM; only the scale
# of the reported numbers depends on it.
REFERENCE_S = 0.1
RECORDS = 20_000
REQUESTS = 20
ACTIVITIES = ("admit", "triage", "lab", "scan", "consult", "surgery", "ward", "discharge")
OAEP = padding.OAEP(mgf=padding.MGF1(hashes.SHA256()), algorithm=hashes.SHA256(), label=None)


def _timed(work) -> float:
    """Wall seconds of ``work()``, with cyclic GC off.

    A pass makes little cyclic garbage, and a collection during it would scan
    whatever else the process holds at the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _records(rnd: random.Random, n: int) -> list[dict]:
    return [
        {
            "case": f"case-{rnd.randrange(10**6):06d}",
            "activity": rnd.choice(ACTIVITIES),
            "timestamp": f"2024-{rnd.randrange(1, 13):02d}-{rnd.randrange(1, 29):02d}T"
            f"{rnd.randrange(24):02d}:{rnd.randrange(60):02d}:{rnd.randrange(60):02d}",
            "cost": rnd.random() * 1000,
        }
        for _ in range(n)
    ]


class AllocProbe:
    """A fixed, allocation-heavy pass of standard-library work."""

    def __init__(self, seed: int = 1) -> None:
        self._records = _records(random.Random(seed), RECORDS)
        self.time()  # the first pass also grows the allocator's arenas

    def _pass(self) -> None:
        blob = base64.urlsafe_b64encode(json.dumps(self._records).encode("utf-8"))
        rows = json.loads(base64.urlsafe_b64decode(blob))
        groups: dict[str, list[str]] = {}
        for row in rows:
            groups.setdefault(row["activity"], []).append(row["case"])
        for cases in groups.values():
            cases.sort()

    def time(self) -> float:
        """Wall seconds of one pass."""
        return _timed(self._pass)


class HttpProbe:
    """Sealed-message POSTs to a loopback ``ThreadingHTTPServer`` of its own.

    The server runs until ``close``; use the probe as a context manager.
    """

    def __init__(self, seed: int = 1) -> None:
        rnd = random.Random(seed)
        key = rsa.generate_private_key(public_exponent=65537, key_size=3072)
        data_key = AESGCM.generate_key(bit_length=256)
        nonce = os.urandom(12)
        payload = json.dumps(_records(rnd, 12)).encode("utf-8")
        self._body = json.dumps({
            "wrapped": base64.b64encode(key.public_key().encrypt(data_key, OAEP)).decode("ascii"),
            "nonce": base64.b64encode(nonce).decode("ascii"),
            "sealed": base64.b64encode(AESGCM(data_key).encrypt(nonce, payload, None)).decode("ascii"),
        }).encode("utf-8")

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                opened = AESGCM(key.decrypt(base64.b64decode(body["wrapped"]), OAEP)).decrypt(
                    base64.b64decode(body["nonce"]), base64.b64decode(body["sealed"]), None
                )
                answer = json.dumps({"rows": len(json.loads(opened))}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(answer)))
                self.end_headers()
                self.wfile.write(answer)

            def log_message(self, format: str, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, name="http-probe")
        self._thread.start()
        self._url = f"http://127.0.0.1:{self._server.server_address[1]}/"
        # never through a proxy, whatever the environment says: the server is local
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        try:
            self.time()
        except BaseException:
            self.close()
            raise

    def _pass(self) -> None:
        for _ in range(REQUESTS):
            request = urllib.request.Request(
                self._url, data=self._body, headers={"Content-Type": "application/json"}
            )
            with self._opener.open(request, timeout=60) as answer:
                answer.read()

    def time(self) -> float:
        """Wall seconds of one pass."""
        return _timed(self._pass)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def __enter__(self) -> "HttpProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
