#!/usr/bin/env python3
"""Repo lint: mechanical determinism rules the compiler does not enforce.

The analyzer runs in passes:

  1. lex       — comments and string/char literals are blanked (positions
                 preserved), so prose mentioning ``new`` or ``rand()``
                 never trips a gate.
  2. rules     — every rule walks the lexed files and emits findings.
  3. suppress  — a finding on a line carrying a matching
                 ``// lint-allow: <rule>`` tag is dropped and the tag is
                 marked used; tags that suppress nothing become
                 ``unused-suppression`` findings, so stale allows cannot
                 accumulate.
  4. report    — text (``path:line: [rule] message``) or ``--format=sarif``
                 (SARIF 2.1.0, one run, one result per finding).

Rules (exit 1 if any finding survives suppression):

  banned-random   no C ``rand()`` / ``srand()`` in src/ — use util/rng.hpp,
                  which is seeded, splittable, and deterministic across runs.
  banned-stdout   no ``std::cout`` in src/ — use util/logging.hpp so output
                  honors the configured level and is serialized across
                  threads.
  pragma-once     every header under src/ starts its include guard with
                  ``#pragma once``.
  naked-new       no ``new`` expressions — ownership goes through
                  make_unique/make_shared/containers.
  test-coverage   every src/<mod>/<name>.cpp with a sibling header is
                  directly included by at least one tests/*_test.cpp, so no
                  module silently drops out of the suite.
  banned-raw-storage
                  no ``make_shared<std::vector<double>>`` outside
                  src/tensor/storage_pool.cpp — tensor buffers must come
                  from the pool so recycling and the allocation counters
                  stay accurate.
  banned-intrinsics
                  no raw SIMD intrinsics outside src/tensor/simd.hpp — all
                  vector code goes through the dispatch tables there.
  banned-node-construction
                  no direct tape-``Node`` construction outside
                  src/autodiff/ — a Node built elsewhere would run eagerly
                  but silently drop out of captured plans.
  banned-raw-sockets
                  no raw blocking socket calls outside
                  src/dist/transport.cpp — the transport wraps every one
                  with a deadline, bounded retries, and framing CRC.
  banned-fma      no explicit fused multiply-add (``std::fma``,
                  ``__builtin_fma*``, ``FP_CONTRACT ON``) outside
                  src/tensor/simd.hpp — contraction changes rounding per
                  target and breaks the cross-variant bit-identity contract;
                  the simd kernel tables pin fma semantics per variant.
  banned-wallclock
                  no time sources (chrono clocks, ``time()``,
                  ``gettimeofday``, ``clock_gettime``, ...) outside
                  src/util/timer.hpp and src/util/logging.cpp — timing must
                  flow through the Timer/logging layer so numerics never
                  read the clock and replay stays deterministic.
  serve-forward-purity
                  no tape construction inside src/serve/ — the serving
                  layer is forward-only replay (NoGradGuard + a
                  ``CaptureKind::kForwardOnly`` capture); building leaves,
                  raw ops, or calling ``grad()`` there would silently grow
                  a tape on the query path.
  plan-thunk-mutation
                  no ``set_thunks(``/``take_thunks(``/``take_recorded(``/
                  ``bind_buffers(`` outside src/autodiff/ — ExecutionPlan
                  thunk arrays are rewritten, and their storage bound, only
                  by the pass pipeline (plan_passes.hpp) and demotion,
                  which is what keeps replay bit-identical and the arena
                  index consistent with the thunk list.
  nested-reverse-derivatives
                  no ``partial(``/``partial_n(``/``partial_mixed(``/
                  ``partial_jet(`` in src/ outside src/autodiff/ and
                  src/nn/jet.* — input derivatives of a model come from
                  ``Module::forward_jet`` (one forward pass), not from
                  nested create_graph reverse sweeps; ``partial`` stays the
                  oracle the jets are tested against.
  single-training-driver
                  no ``grad(`` and no optimizer construction
                  (``optim::Adam``, ``lbfgs_minimize``) in src/ outside
                  src/autodiff/, src/optim/ and src/core/trainer.cpp —
                  every problem trains through ``core::Trainer``, the one
                  loop that captures, replays, shards, demotes and
                  checkpoints.
  banned-unordered-float-reduce
                  no ``unordered_map``/``unordered_set`` whose element or
                  mapped type is directly ``float``/``double`` — iteration
                  is hash-order and reducing over it reorders the
                  floating-point sum between runs.
  banned-naked-float-cast
                  no double<->float casts (``static_cast<float>``, C-style
                  or functional ``float(...)``) outside src/tensor/ — the
                  fp64/fp32 boundary is crossed only through
                  ``kernels_f32::downcast``/``upcast`` so every precision
                  demotion is a visible, auditable plan edit rather than an
                  ad-hoc cast.
  catch-all-swallow
                  every ``catch (...)`` must rethrow (``throw;``) or
                  capture ``std::current_exception()`` — swallowing unknown
                  exceptions hides rank failures from the training loop.
                  Teardown paths in src/dist/launcher.cpp and
                  src/dist/transport.cpp are exempt.
  single-dispatch-policy
                  outside src/parallel/, no grain argument to
                  ``parallel_for``/``parallel_reduce`` (an extra argument,
                  or a numeric literal where the per-item cost class goes)
                  and no literal ``true``/``false`` dispatch flag to
                  ``for_each_chunk`` — whether a call goes to the pool is
                  decided only by the work policy in
                  parallel/parallel_for.hpp.
  single-placement
                  no ``sched_setaffinity``, ``pthread_setaffinity_np`` or
                  ``CPU_SET`` outside src/parallel/thread_pool.cpp — a
                  thread is only ever placed once, by
                  ``place_thread_once``, which restores the full mask at
                  once; a permanent pin is slower once the scheduler has
                  spread the threads.
  unused-suppression
                  every ``// lint-allow: <rule>`` tag must suppress a real
                  finding on its line; stale tags are findings themselves.

Usage: tools/qpinn_lint.py [--root REPO_ROOT] [--format {text,sarif}]
                           [--output FILE]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import re
import sys
from typing import Iterable, Iterator

TOOL_NAME = "qpinn_lint"
TOOL_VERSION = "2.0.0"
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

HEADER_EXT = ".hpp"
SOURCE_EXTS = (".hpp", ".cpp")

ALLOW_TAG = "lint-allow:"


def strip_code(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines and
    column positions so findings keep real line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


@dataclasses.dataclass
class Finding:
    rel: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class SourceFile:
    """A lexed source file: raw lines for suppression tags, code lines
    (comments/strings blanked) for the token rules."""
    path: pathlib.Path
    rel: str
    raw_lines: list[str]
    code_text: str
    code_lines: list[str]

    @staticmethod
    def load(path: pathlib.Path, root: pathlib.Path) -> "SourceFile":
        raw = path.read_text(encoding="utf-8")
        code = strip_code(raw)
        return SourceFile(path=path,
                          rel=path.relative_to(root).as_posix(),
                          raw_lines=raw.splitlines(),
                          code_text=code,
                          code_lines=code.splitlines())


class Rule:
    """One named analysis pass over the lexed file set."""

    name = ""
    short = ""  # one-line description, exported to SARIF

    def check(self, files: list[SourceFile]) -> Iterator[Finding]:
        raise NotImplementedError


class RegexRule(Rule):
    """Line-oriented token rule: any pattern hit on a lexed line is a
    finding, unless the file is exempt (exact rel path or rel prefix).
    ``only_prefixes`` inverts the scoping: the rule applies exclusively to
    files under the given rel prefixes (for per-subsystem bans)."""

    def __init__(self, name: str, short: str, message: str,
                 patterns: Iterable[str], exempt: Iterable[str] = (),
                 exempt_prefixes: Iterable[str] = (),
                 only_prefixes: Iterable[str] = ()):
        self.name, self.short, self.message = name, short, message
        self.patterns = [re.compile(p) for p in patterns]
        self.exempt = frozenset(exempt)
        self.exempt_prefixes = tuple(exempt_prefixes)
        self.only_prefixes = tuple(only_prefixes)

    def applies_to(self, rel: str) -> bool:
        if self.only_prefixes and not rel.startswith(self.only_prefixes):
            return False
        if rel in self.exempt:
            return False
        return not (self.exempt_prefixes
                    and rel.startswith(self.exempt_prefixes))

    def check(self, files: list[SourceFile]) -> Iterator[Finding]:
        for f in files:
            if not self.applies_to(f.rel):
                continue
            for lineno, code in enumerate(f.code_lines, start=1):
                if any(p.search(code) for p in self.patterns):
                    yield Finding(f.rel, lineno, self.name, self.message)


class PragmaOnceRule(Rule):
    name = "pragma-once"
    short = "headers start with #pragma once"

    def check(self, files: list[SourceFile]) -> Iterator[Finding]:
        for f in files:
            if f.path.suffix != HEADER_EXT:
                continue
            for raw in f.raw_lines:
                stripped = raw.strip()
                if stripped == "#pragma once":
                    break
                if stripped and not stripped.startswith("//"):
                    yield Finding(f.rel, 1, self.name,
                                  "header must start with #pragma once")
                    break
            else:
                yield Finding(f.rel, 1, self.name,
                              "header must start with #pragma once")


class TestCoverageRule(Rule):
    """Repo-level rule: every src/ translation unit with a sibling header
    must have that header included by some tests/*_test.cpp."""

    name = "test-coverage"
    short = "every module header is included by a test suite"

    def __init__(self, src: pathlib.Path, tests: pathlib.Path,
                 root: pathlib.Path):
        self.src, self.tests, self.root = src, tests, root

    def check(self, files: list[SourceFile]) -> Iterator[Finding]:
        included: set[str] = set()
        include_re = re.compile(r'#include\s+"([^"]+)"')
        for test in sorted(self.tests.glob("*_test.cpp")):
            for match in include_re.finditer(
                    test.read_text(encoding="utf-8")):
                included.add(match.group(1))
        for f in files:
            if f.path.suffix != ".cpp":
                continue
            header = f.path.with_suffix(HEADER_EXT)
            if not header.is_file():
                continue
            rel = header.relative_to(self.src).as_posix()
            if rel not in included:
                yield Finding(
                    f.rel, 1, self.name,
                    f'no tests/*_test.cpp includes "{rel}"; add a test or '
                    f"an include to an existing suite")


class CatchAllSwallowRule(Rule):
    """Brace-matching rule: a ``catch (...)`` block must rethrow, capture
    std::current_exception(), or deliberately terminate. Launcher and
    transport teardown paths (best-effort cleanup of dead peers) are
    exempt."""

    name = "catch-all-swallow"
    short = "catch (...) must rethrow or capture current_exception"
    EXEMPT = frozenset({"src/dist/launcher.cpp", "src/dist/transport.cpp"})
    CATCH = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
    HANDLED = re.compile(r"\bthrow\s*;|\bcurrent_exception\b|"
                         r"\brethrow_exception\b|\bterminate\s*\(|"
                         r"\babort\s*\(")

    def check(self, files: list[SourceFile]) -> Iterator[Finding]:
        for f in files:
            if f.rel in self.EXEMPT:
                continue
            text = f.code_text
            for match in self.CATCH.finditer(text):
                brace = text.find("{", match.end())
                if brace < 0:
                    continue
                depth, i = 0, brace
                while i < len(text):
                    if text[i] == "{":
                        depth += 1
                    elif text[i] == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                body = text[brace:i + 1]
                if not self.HANDLED.search(body):
                    line = text.count("\n", 0, match.start()) + 1
                    yield Finding(
                        f.rel, line, self.name,
                        "catch (...) swallows the exception; rethrow "
                        "(throw;) or capture std::current_exception() so "
                        "failures reach the training loop")


def split_call_args(text: str, open_paren: int) -> tuple[list[str], int]:
    """Top-level comma-separated arguments of the call whose ``(`` is at
    ``open_paren``, and the index of its matching ``)`` (-1 if unclosed)."""
    args, depth, start = [], 0, open_paren + 1
    for i in range(open_paren, len(text)):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i].strip())
                return [a for a in args if a], i
        elif ch == "," and depth == 1:
            args.append(text[start:i].strip())
            start = i + 1
    return args, -1


class SingleDispatchPolicyRule(Rule):
    """Call-shape rule: every dispatch decision comes from the one work
    policy in src/parallel/ (dispatch_pays). A per-op grain — an extra
    argument, or a number where parallel_for/parallel_reduce take the
    per-item cost class — or a hard-wired for_each_chunk dispatch flag
    would bring the per-op rules back."""

    name = "single-dispatch-policy"
    short = "pool dispatch is decided only by the src/parallel/ policy"
    CALL = re.compile(r"\b(parallel_for|parallel_reduce|for_each_chunk)"
                      r"\s*(?:<[^<>;()]*>)?\s*\(")
    ARITY = {"parallel_for": 3, "parallel_reduce": 5}
    NUMBER = re.compile(r"^[\d.]+(?:[eE][-+]?\d+)?[uUlLfF]*$")
    FLAG = re.compile(r"^(?:true|false)$")

    def check(self, files: list[SourceFile]) -> Iterator[Finding]:
        for f in files:
            if f.rel.startswith("src/parallel/"):
                continue
            text = f.code_text
            for match in self.CALL.finditer(text):
                args, close = split_call_args(text, match.end() - 1)
                if close < 0:
                    continue
                fn = match.group(1)
                line = text.count("\n", 0, match.start()) + 1
                if fn in self.ARITY:
                    # parallel_for's last argument is the body, so a
                    # number there is the old trailing grain.
                    costs = args[1:2] + (args[-1:] if fn == "parallel_for"
                                         else [])
                    if (len(args) > self.ARITY[fn] or
                            any(self.NUMBER.match(a) for a in costs)):
                        yield Finding(
                            f.rel, line, self.name,
                            f"{fn} takes no grain; state the per-item "
                            "cost (a cost:: class) and let the dispatch "
                            "policy in parallel/parallel_for.hpp decide")
                elif len(args) > 2 and self.FLAG.match(args[2]):
                    yield Finding(
                        f.rel, line, self.name,
                        "for_each_chunk's dispatch flag comes from "
                        "dispatch_pays(work, chunks), not a literal")


def build_rules(src: pathlib.Path, tests: pathlib.Path,
                root: pathlib.Path) -> list[Rule]:
    """The full rule registry, in reporting order."""
    return [
        RegexRule(
            "banned-random", "no C rand()/srand(); use util/rng.hpp",
            "C rand()/srand() is banned; use util/rng.hpp (seeded, "
            "deterministic)",
            # C rand() takes no arguments; qpinn's Tensor::rand(shape, ...)
            # never matches the empty-parens form.
            [r"\b(?:std::)?rand\s*\(\s*\)", r"\bsrand\s*\("]),
        RegexRule(
            "banned-stdout", "no std::cout in src/; use util/logging.hpp",
            "std::cout is banned in src/; use util/logging.hpp",
            [r"\bstd::cout\b"]),
        RegexRule(
            "naked-new", "no naked new expressions",
            "naked new is banned; use make_unique/make_shared or a "
            "container",
            [r"\bnew\b"]),
        RegexRule(
            "banned-raw-storage",
            "tensor buffers come from tensor/storage_pool.hpp",
            "raw tensor-buffer allocation is banned; acquire storage via "
            "tensor/storage_pool.hpp so pooling and counters stay accurate",
            [r"make_shared\s*<\s*std::vector\s*<\s*double\b"],
            exempt=["src/tensor/storage_pool.cpp"]),
        RegexRule(
            "banned-intrinsics",
            "raw SIMD intrinsics only inside tensor/simd.hpp",
            "raw SIMD intrinsics are banned outside tensor/simd.hpp; use "
            "the simd::active() kernel tables",
            [r"#include\s*<(?:immintrin|arm_neon)\.h>",
             r"\b_mm\d*_\w+", r"\b__m\d+[di]?\b",
             r"\bfloat64x\d+_t\b|\bv\w+q_f64\b"],
            exempt=["src/tensor/simd.hpp"]),
        RegexRule(
            "banned-node-construction",
            "tape Nodes are built only inside src/autodiff/",
            "direct tape-Node construction is banned outside src/autodiff/; "
            "go through the autodiff ops so plan capture records the op",
            [r"(?:make_shared\s*<|new\s+)\s*(?:\w+\s*::\s*)*Node\b"],
            exempt_prefixes=["src/autodiff/"]),
        RegexRule(
            "banned-raw-sockets",
            "raw socket calls only inside dist/transport.cpp",
            "raw socket calls are banned outside dist/transport.cpp; use "
            "the Socket/Listener wrappers (deadlines, retries, framing)",
            # The lookbehind skips member access (timer.connect,
            # obj->accept) while catching the global ::recv spelling.
            [r"(?<![\w.>])(?:::\s*)?\b(?:recv|accept|connect)\s*\("],
            exempt=["src/dist/transport.cpp"]),
        RegexRule(
            "banned-fma",
            "explicit FMA contraction only inside tensor/simd.hpp",
            "explicit fused multiply-add is banned outside tensor/simd.hpp; "
            "contraction changes rounding per target and breaks the "
            "cross-variant bit-identity contract — use the simd kernel "
            "tables",
            [r"(?<![\w.>:])(?:std\s*::\s*)?fma[fl]?\s*\(",
             r"\b__builtin_fma\w*\b",
             r"#pragma\s+STDC\s+FP_CONTRACT\s+ON"],
            exempt=["src/tensor/simd.hpp"]),
        RegexRule(
            "banned-libm-sincos",
            "sin/cos in src/tensor/ run through the SIMD kernel table",
            "libm sin/cos is banned in src/tensor/; use the simd table's "
            "sin/cos kernels so every ISA, chunking and precision "
            "computes the same bits (only simd.hpp's large-argument fix-up "
            "may call libm, under a lint-allow tag)",
            # std::sin, std::cosf, ::sin and sincos spellings; member calls
            # (table.sin) and namespaced kernels (exec::sin) stay legal.
            [r"\bstd\s*::\s*(?:sin|cos|sincos)[fl]?\s*\(",
             r"(?<![\w.>:])::\s*(?:sin|cos|sincos)[fl]?\s*\(",
             r"(?<![\w.>:])(?:sincos|sinf|cosf|sinl|cosl)\s*\("],
            only_prefixes=["src/tensor/"]),
        RegexRule(
            "banned-wallclock",
            "time sources only inside util/timer.hpp and util/logging.cpp",
            "time sources are banned outside util/timer.hpp and "
            "util/logging.cpp; route timing through util::Timer so numerics "
            "never read the clock and replay stays deterministic",
            [r"\b(?:system_clock|steady_clock|high_resolution_clock)\b",
             r"\b(?:gettimeofday|clock_gettime|timespec_get|localtime"
             r"|gmtime)\s*\(",
             r"(?<![\w.>:])(?:std\s*::\s*)?time\s*\(",
             r"(?<![\w.>:])(?:std\s*::\s*)?clock\s*\(\s*\)"],
            exempt=["src/util/timer.hpp", "src/util/logging.cpp"]),
        RegexRule(
            "serve-forward-purity",
            "the serving layer never builds a tape",
            "tape construction is banned in src/serve/; serving is "
            "forward-only replay — capture under NoGradGuard with "
            "CaptureKind::kForwardOnly instead of building leaves, ops, or "
            "calling grad()",
            [r"\bVariable\s*::\s*leaf\s*\(",
             r"\bmake_op\s*\(",
             r"(?<![\w.>:])(?:autodiff\s*::\s*|ad\s*::\s*)?grad\s*\(",
             r"\bCaptureKind\s*::\s*kTraining\b"],
            only_prefixes=["src/serve/"]),
        RegexRule(
            "plan-thunk-mutation",
            "ExecutionPlan thunk arrays are rewritten only inside "
            "src/autodiff/",
            "direct ExecutionPlan thunk-array mutation or storage binding "
            "is banned outside src/autodiff/; rewrite plans through the "
            "pass pipeline (plan_passes.hpp optimize_plan) so the "
            "bit-identity contract and arena accounting stay intact",
            [r"\b(?:set_thunks|take_thunks|take_recorded|bind_buffers)"
             r"\s*\("],
            exempt_prefixes=["src/autodiff/"]),
        RegexRule(
            "nested-reverse-derivatives",
            "input derivatives come from forward jets, not nested "
            "reverse sweeps",
            "nested reverse-mode derivatives (partial, partial_n, "
            "partial_mixed, partial_jet) are banned outside src/autodiff/ "
            "and src/nn/jet.*; differentiate a model by its forward_jet",
            # The lookbehind skips longer identifiers (jet_by_partial) and
            # member calls.
            [r"(?<![\w.>])(?:partial|partial_n|partial_mixed|partial_jet)"
             r"\s*\("],
            exempt=["src/nn/jet.hpp", "src/nn/jet.cpp"],
            exempt_prefixes=["src/autodiff/"]),
        RegexRule(
            "single-training-driver",
            "gradients and optimizers are driven only by core::Trainer",
            "grad() and optimizer construction are banned in src/ outside "
            "src/autodiff/, src/optim/ and src/core/trainer.cpp; train a "
            "Problem through core::Trainer::step instead of a private loop",
            # The lookbehinds skip longer identifiers (tanh_grad,
            # requires_grad) and member calls; a declared optimizer type
            # (unique_ptr<optim::Adam>) or config is not a construction.
            [r"(?<![\w.>:])(?:(?:autodiff|ad)\s*::\s*)?grad(?:_single)?\s*\(",
             r"\boptim\s*::\s*Adam\b\s*"
             r"(?:>\s*\(|[({]|\w+\s*[({])",
             r"(?<![\w.>])(?:optim\s*::\s*)?lbfgs_minimize\s*\("],
            exempt=["src/core/trainer.cpp"],
            exempt_prefixes=["src/autodiff/", "src/optim/"]),
        RegexRule(
            "banned-unordered-float-reduce",
            "no unordered containers of float/double elements",
            "unordered containers iterate in hash order; a float/double "
            "element or mapped type invites an order-nondeterministic "
            "reduction — use std::map or sort the keys first",
            # Direct element/mapped type only: [^<>] cannot cross a nested
            # template argument, so vector<vector<double>> stays legal.
            [r"\bunordered_(?:map|set)\s*<[^<>\n]*\b(?:float|double)\s*>"]),
        RegexRule(
            "banned-naked-float-cast",
            "double<->float conversions only inside src/tensor/",
            "double<->float casts are banned outside src/tensor/; cross "
            "the precision boundary only through kernels_f32::downcast/"
            "upcast so fp64 master-weight residency stays auditable",
            # sizeof(float) is not a cast: the lookbehinds skip it, and a
            # real cast is followed by an operand anyway. The functional
            # form needs a non-identifier on the left so declarations like
            # `float foo(` never match.
            [r"\bstatic_cast\s*<\s*float\s*>",
             r"(?<!sizeof)(?<!sizeof )\(\s*float\s*\)\s*[\w(]",
             r"(?<![\w.:])float\s*\("],
            exempt_prefixes=["src/tensor/"]),
        RegexRule(
            "single-placement",
            "threads are placed only by parallel/thread_pool.cpp",
            "affinity calls are banned outside src/parallel/thread_pool.cpp; "
            "call place_thread_once, which moves a thread once and restores "
            "its full mask instead of pinning it",
            # CPU_SETSIZE and CPU_ISSET only read masks.
            [r"\b(?:sched_setaffinity|pthread_setaffinity_np)\s*\(",
             r"\bCPU_SET(?:_S)?\s*\("],
            exempt=["src/parallel/thread_pool.cpp"]),
        PragmaOnceRule(),
        CatchAllSwallowRule(),
        SingleDispatchPolicyRule(),
        TestCoverageRule(src, tests, root),
    ]


class SuppressionIndex:
    """Pass 3: ``// lint-allow: <rule>`` tags. A finding whose (file, line)
    carries a tag naming its rule is suppressed and the tag counted used;
    leftover tags become unused-suppression findings."""

    def __init__(self, files: list[SourceFile]):
        self.tags: dict[tuple[str, int], dict] = {}
        for f in files:
            for lineno, raw in enumerate(f.raw_lines, start=1):
                if ALLOW_TAG not in raw:
                    continue
                tail = raw.rsplit(ALLOW_TAG, 1)[1].strip()
                rule = tail.split()[0] if tail else ""
                self.tags[(f.rel, lineno)] = {"rule": rule, "used": False}

    def apply(self, findings: list[Finding]) -> list[Finding]:
        kept = []
        for finding in findings:
            tag = self.tags.get((finding.rel, finding.line))
            if tag is not None and tag["rule"] == finding.rule:
                tag["used"] = True
            else:
                kept.append(finding)
        return kept

    def used_count(self) -> int:
        return sum(1 for tag in self.tags.values() if tag["used"])

    def unused(self) -> Iterator[Finding]:
        for (rel, line), tag in sorted(self.tags.items()):
            if not tag["used"]:
                yield Finding(
                    rel, line, "unused-suppression",
                    f"'lint-allow: {tag['rule']}' suppresses nothing; "
                    f"remove the tag or name the right rule")


@dataclasses.dataclass
class LintReport:
    findings: list[Finding]
    files_checked: int
    suppressions_used: int
    rules: list[Rule]


def run_lint(root: pathlib.Path) -> LintReport:
    src, tests = root / "src", root / "tests"
    if not src.is_dir() or not tests.is_dir():
        raise FileNotFoundError(f"{root} has no src/ and tests/")

    files = [SourceFile.load(p, root) for p in sorted(src.rglob("*"))
             if p.suffix in SOURCE_EXTS and p.is_file()]
    rules = build_rules(src, tests, root)

    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(files))

    suppressions = SuppressionIndex(files)
    findings = suppressions.apply(findings)
    findings.extend(suppressions.unused())
    findings.sort(key=lambda f: (f.rel, f.line, f.rule))
    return LintReport(findings=findings, files_checked=len(files),
                      suppressions_used=suppressions.used_count(),
                      rules=rules)


def sarif_document(report: LintReport, root: pathlib.Path) -> dict:
    """SARIF 2.1.0: one run, the rule registry as reportingDescriptors,
    one result per finding with a SRCROOT-relative location."""
    rule_meta = [{"id": rule.name,
                  "shortDescription": {"text": rule.short}}
                 for rule in report.rules]
    rule_meta.append({"id": "unused-suppression",
                      "shortDescription": {
                          "text": "lint-allow tags must suppress a real "
                                  "finding"}})
    rule_index = {meta["id"]: i for i, meta in enumerate(rule_meta)}
    results = [{
        "ruleId": finding.rule,
        "ruleIndex": rule_index[finding.rule],
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.rel,
                                     "uriBaseId": "SRCROOT"},
                "region": {"startLine": finding.line},
            },
        }],
    } for finding in report.findings]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {"name": TOOL_NAME,
                                "version": TOOL_VERSION,
                                "rules": rule_meta}},
            "originalUriBaseIds": {
                "SRCROOT": {"uri": root.resolve().as_uri() + "/"}},
            "results": results,
        }],
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repository root (default: this script's ../)")
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    args = parser.parse_args()

    root = (pathlib.Path(args.root).resolve() if args.root
            else pathlib.Path(__file__).resolve().parent.parent)
    try:
        report = run_lint(root)
    except FileNotFoundError as err:
        print(f"{TOOL_NAME}: {err}", file=sys.stderr)
        return 2

    if args.format == "sarif":
        text = json.dumps(sarif_document(report, root), indent=2)
    else:
        text = "\n".join(str(f) for f in report.findings)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n", encoding="utf-8")
    elif text:
        print(text)

    status = "FAIL" if report.findings else "OK"
    summary = (f"{TOOL_NAME}: {report.files_checked} files, "
               f"{len(report.findings)} finding(s), "
               f"{report.suppressions_used} suppression(s) used [{status}]")
    print(summary, file=sys.stderr if args.format == "sarif" else sys.stdout)
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
