"""The four workloads: their requests, how each is issued, and its check.

Every workload is a closed loop with one caller that works through a pool
of ``POOL`` requests built from the seed (and wraps around if it gets to the
end). The pool is large so that op latencies spread over many distinct
sizes, and its order spreads every prefix over the whole size range. An
in-process request calls the library's public functions the way the CLI
handlers do and returns the JSON text; a CLI request runs
``python -m timed_plactic`` in a fresh process.
Each request knows its expected result, computed by ``reference`` (not by
the library) and only when first needed, outside the timed region.
"""

from __future__ import annotations

import base64
import json
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import inputs
import reference as ref

POOL = 288
DIGEST_OPS = 48  # outputs hashed: the first requests, which every run completes
CLI_TIMEOUT_S = 20.0
WORKLOADS = ("classical-long", "timed-long", "timed-coprime", "cli-desk")
# Calibration kernel per workload: the one closest to the work it does.
KERNEL_OF = {
    "classical-long": "tuples",
    "timed-long": "fractions",
    "timed-coprime": "fractions",
    "cli-desk": "tuples",
}


@dataclass
class Request:
    kind: str
    args: tuple  # texts for in-process requests; argv for CLI requests
    expect: object  # callable returning what check() compares against
    letters: int = 0  # classical letters in the input(s)
    runs: int = 0  # timed runs in the input(s)
    alphabet: int = 0
    grid_den_bits: int = 0
    exit_code: int = 0  # CLI only
    _expected: object = field(default=None, repr=False)

    def expected(self):
        if self._expected is None:
            self._expected = self.expect()
        return self._expected


def _timed_stats(req: Request, *words) -> Request:
    req.runs = sum(len(w) for w in words)
    req.grid_den_bits = max(ref.grid_denominator(w).bit_length() for w in words)
    return req


def _kinds(n: int, names: tuple[str, ...]) -> list[str]:
    return [names[i % len(names)] for i in range(n)]


# ------------------------------------------------------- in-process requests


def classical_long(seed: int) -> list[Request]:
    rng = random.Random(seed)
    alphabet = 20
    kinds = _kinds(POOL, ("insert", "greene", "equiv"))
    sizes = {k: inputs.strata(300, 1000, kinds.count(k)) for k in set(kinds)}
    reqs = []
    for i, kind in enumerate(kinds):
        n = sizes[kind].pop(0)
        if kind == "equiv":
            # Its two words share the n letters, as a move request's do.
            equivalent = (i // 3) % 2 == 0
            left, right = inputs.classical_equiv_pair(rng, n // 2, alphabet, equivalent)
            texts = (inputs.format_word(left), inputs.format_word(right))
            expect = (lambda l=left, r=right, e=equivalent: {
                "left_tableau": ref.classical_tableau_dict(ref.schensted(l)),
                "right_tableau": ref.classical_tableau_dict(ref.schensted(r)),
                "equivalent": e,
            })
            letters = 2 * (n // 2)
        else:
            word = inputs.classical_word(rng, n, alphabet)
            texts = (inputs.format_word(word),)
            if kind == "insert":
                expect = lambda w=word: ref.classical_tableau_dict(ref.schensted(w))
            else:
                expect = lambda w=word: ref.classical_greene(ref.schensted(w))
            letters = n
        reqs.append(Request(kind, texts, expect, letters=letters, alphabet=alphabet))
    return reqs


def timed(seed: int, coprime: bool) -> list[Request]:
    rng = random.Random(seed)
    primes = inputs.primes_below(2000)
    kinds = _kinds(POOL, ("insert", "greene", "move"))
    sizes = {k: inputs.strata(60, 180, kinds.count(k)) for k in set(kinds)}
    reqs = []
    for i, kind in enumerate(kinds):
        n = sizes[kind].pop(0)
        alphabet = 8 + (i // 3) % 5  # like the sizes, the same for every seed
        draw = inputs.prime_dens(primes) if coprime else inputs.small_den(8)
        if kind == "move":
            # Its two words share the n runs, so that every kind of request
            # costs about the same at a given size and no kind alone makes
            # the latency tail.
            equivalent = (i // 3) % 2 == 0
            left, right, move, moved = inputs.move_instance(
                rng, n // 2, alphabet, draw, equivalent=equivalent
            )
            texts = (inputs.format_timed(left), inputs.format_timed(right), json.dumps(move))
            expect = (lambda l=left, r=right, m=moved, e=equivalent: {
                "left_tableau": ref.timed_tableau_dict(ref.timed_tableau(l)),
                "right_tableau": ref.timed_tableau_dict(ref.timed_tableau(r)),
                "move_result": ref.timed_word_dict(m),
                "move_reaches_right": e,
                "equivalent": e,
            })
            req = _timed_stats(Request(kind, texts, expect, alphabet=alphabet), left, right)
        else:
            word = inputs.normal_form(inputs.timed_word(rng, n, alphabet, draw))
            texts = (inputs.format_timed(word),)
            if kind == "insert":
                expect = lambda w=word: ref.timed_tableau_dict(ref.timed_tableau(w))
            else:
                expect = lambda w=word: [str(x) for x in ref.timed_greene(ref.timed_tableau(w))]
            req = _timed_stats(Request(kind, texts, expect, alphabet=alphabet), word)
        reqs.append(req)
    return reqs


def run_in_process(lib, req: Request) -> str:
    """One request through the library's public functions, as the CLI's
    ``insert``/``greene``/``equiv`` handlers call them; returns JSON text."""
    kind, args = req.kind, req.args
    if req.runs:
        parse, insert, to_dict = lib.parse_timed_word, lib.timed_insertion_tableau, lib.timed_tableau_to_dict
    else:
        parse, insert, to_dict = lib.parse_word, lib.insertion_tableau, lib.tableau_to_dict
    if kind == "insert":
        return json.dumps(to_dict(insert(parse(args[0]))))
    if kind == "greene":
        if req.runs:
            return json.dumps([str(x) for x in lib.greene_timed(parse(args[0]))])
        return json.dumps(list(lib.greene_classical(parse(args[0]))))
    left, right = parse(args[0]), parse(args[1])
    payload = {}
    if kind == "move":
        moved = lib.apply_move(left, lib.move_from_dict(json.loads(args[2])))
    ta, tb = insert(left), insert(right)
    payload["left_tableau"] = to_dict(ta)
    payload["right_tableau"] = to_dict(tb)
    if kind == "move":
        payload["move_result"] = lib.timed_word_to_dict(moved)
        payload["move_reaches_right"] = moved == right
    payload["equivalent"] = ta == tb
    return json.dumps(payload)


def check_in_process(req: Request, out: str) -> bool:
    return json.loads(out) == req.expected()


# -------------------------------------------------------------- CLI requests

# Requests that must fail with exit code 2 (parse errors).
BAD_INPUTS = ("3^1/0", "2^1 x^3", "12a4", "0^1 2^1", "1,,2", "3^ 1^2")

# One cycle of CLI request kinds; the pool repeats it with fresh inputs.
CLI_CYCLE = (
    "insert", "greene-classical", "equiv", "render", "check", "insert-timed",
    "steps", "greene-timed", "equiv-false", "greene-classical", "check", "parse-error",
)


def cli_desk(seed: int, workdir: Path) -> list[Request]:
    """CLI requests; SVGs go to ``workdir``, relative to the CLI's working
    directory so that outputs do not depend on where the checkout is."""
    rng = random.Random(seed)
    kinds = _kinds(POOL, CLI_CYCLE)
    reqs = []
    for i, kind in enumerate(kinds):
        reqs.append(_cli_request(rng, i, kind, workdir))
    return reqs


def _cli_request(rng: random.Random, i: int, kind: str, workdir: Path) -> Request:
    if kind in ("insert", "steps", "render"):
        alphabet = rng.randint(5, 9)
        word = inputs.classical_word(rng, rng.randint(36, 44), alphabet)
        text = inputs.format_word(word)
        if kind == "insert":
            argv = ["insert", text, "--json"]
            expect = lambda w=word: ref.classical_tableau_dict(ref.schensted(w))
        elif kind == "steps":
            argv = ["insert", text, "--steps", "--json"]
            expect = lambda w=word: {
                **ref.classical_tableau_dict(ref.schensted(w)),
                "steps": [ref.classical_tableau_dict(s) for s in ref.schensted_steps(w)],
            }
        else:
            svg = workdir / f"render-{i}.svg"
            argv = ["render", text, "--tableau", "--svg", str(svg), "--json"]
            expect = lambda w=word, p=str(svg): {
                "svg": p,
                "rects": sum(len(r) for r in ref.timed_tableau(ref.embed(w))),
            }
        return Request(kind, tuple(argv), expect, letters=len(word), alphabet=alphabet)
    if kind in ("equiv", "equiv-false"):
        alphabet = rng.randint(5, 9)
        left, right = inputs.classical_equiv_pair(rng, rng.randint(36, 44), alphabet, kind == "equiv")
        argv = ["equiv", inputs.format_word(left), inputs.format_word(right), "--json"]
        expect = lambda l=left, r=right, e=(kind == "equiv"): {
            "left_tableau": ref.classical_tableau_dict(ref.schensted(l)),
            "right_tableau": ref.classical_tableau_dict(ref.schensted(r)),
            "equivalent": e,
        }
        return Request(kind, tuple(argv), expect, letters=len(left) + len(right),
                       alphabet=alphabet, exit_code=0 if kind == "equiv" else 1)
    if kind == "greene-classical":
        alphabet = rng.randint(3, 6)
        word = inputs.classical_word(rng, rng.randint(11, 14), alphabet)
        argv = ["greene", inputs.format_word(word), "--oracle", "--json"]
        expect = lambda w=word: {
            "profile": ref.classical_greene(ref.schensted(w)), "mode": "both", "agreement": True,
        }
        return Request(kind, tuple(argv), expect, letters=len(word), alphabet=alphabet)
    if kind in ("greene-timed", "insert-timed"):
        alphabet = rng.randint(3, 4) if kind == "greene-timed" else rng.randint(4, 8)
        n = rng.randint(4, 6) if kind == "greene-timed" else rng.randint(8, 12)
        word = inputs.normal_form(inputs.timed_word(rng, n, alphabet, inputs.small_den(6)))
        text = inputs.format_timed(word)
        if kind == "insert-timed":
            argv = ["insert", text, "--json"]
            expect = lambda w=word: ref.timed_tableau_dict(ref.timed_tableau(w))
        else:
            argv = ["greene", text, "--oracle", "--json"]
            expect = lambda w=word: _greene_timed_expect(w)
        req = Request(kind, tuple(argv), expect, alphabet=alphabet)
        return _timed_stats(req, word)
    if kind == "check":
        argv = ["check", "--iters", "5", "--seed", str(rng.randrange(10**6)), "--json"]
        return Request(kind, tuple(argv), lambda: {"iterations": 5, "ok": True})
    bad = rng.choice(BAD_INPUTS)
    argv = [rng.choice(["insert", "greene"]), bad, "--json"]
    return Request(kind, tuple(argv), lambda: None, exit_code=2)


# The CLI skips the timed oracle when the grid expansion exceeds this.
ORACLE_MAX_LETTERS = 500


def _greene_timed_expect(word) -> dict:
    profile = [str(x) for x in ref.timed_greene(ref.timed_tableau(word))]
    if expanded_letters(word) > ORACLE_MAX_LETTERS:
        return {"profile": profile, "mode": "fast", "agreement": None}
    return {"profile": profile, "mode": "both", "agreement": True}


def expanded_letters(word) -> int:
    return int(sum(d for _, d in word) * ref.grid_denominator(word))


class Launcher:
    """Issues CLI requests through ``launcher.py`` (see there for why)."""

    def __init__(self, env, cwd):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py")), str(CLI_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True,
        )

    def run(self, argv) -> tuple[subprocess.CompletedProcess | None, float]:
        """(reply, wall ms); the reply is None when the request timed out."""
        self._proc.stdin.write(json.dumps(list(argv)) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        if reply["code"] is None:
            return None, reply["ms"]
        out, err = (base64.b64decode(reply[k]) for k in ("stdout", "stderr"))
        return subprocess.CompletedProcess(argv, reply["code"], out, err), reply["ms"]

    def close(self) -> float:
        """Stop the launcher; returns the largest child's peak RSS in MB."""
        self._proc.stdin.close()
        last = json.loads(self._proc.stdout.readline())
        self._proc.wait(timeout=30)
        return last["maxrss_kb"] / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()


def cli_output(req: Request, proc) -> bytes:
    """The bytes a CLI request produced, for the digest."""
    out = b"%d\n" % proc.returncode + proc.stdout + proc.stderr
    if req.kind == "render" and proc.returncode == 0:
        out += Path(req.args[4]).read_bytes()
    return out


def check_cli(req: Request, proc) -> tuple[bool, dict]:
    """(correct, facts) for one CLI reply; facts feed the per-layer metrics."""
    if proc.returncode != req.exit_code:
        return False, {}
    if req.kind == "parse-error":
        err = json.loads(proc.stderr)
        return "error" in err and not proc.stdout, {}
    got = json.loads(proc.stdout)
    want = req.expected()
    if req.kind == "check":
        ok = got["iterations"] == want["iterations"] and got["ok"] is True and all(
            s["fail"] == 0 and s["pass"] == want["iterations"] for s in got["suites"]
        )
        return ok, {"selfcheck_iterations": sum(s["pass"] + s["fail"] for s in got["suites"])}
    if req.kind == "render":
        data = Path(got["svg"]).read_bytes()
        root = ET.fromstring(data)
        rects = sum(1 for el in root.iter() if el.tag.endswith("rect"))
        ok = got["svg"] == want["svg"] and got["bytes"] == len(data) and rects == want["rects"]
        return ok, {"svg_bytes": len(data)}
    if req.kind.startswith("greene"):
        facts = {}
        if got.get("agreement") is not None:
            facts["oracle_agreement"] = got["agreement"] is True
        if req.kind == "greene-timed" and got["mode"] == "fast":
            facts["oracle_skipped"] = True
            ok = "note" in got and {k: got[k] for k in ("profile", "mode", "agreement")} == want
            return ok, facts
        return got == want, facts
    return got == want, {}


def size_stats(reqs: list[Request]) -> str:
    """One line of input-size statistics (min/median/max over the pool)."""
    parts = []
    for name in ("letters", "runs", "alphabet", "grid_den_bits"):
        values = [getattr(r, name) for r in reqs if getattr(r, name)]
        if values:
            parts.append(f"{name} {min(values)}/{median(values):g}/{max(values)}")
    return f"inputs: {len(reqs)} requests; min/median/max " + ", ".join(parts)

