#!/usr/bin/env python3
"""Unit tests for tools/qpinn_lint.py.

Every rule gets a positive case (the rule fires on a minimal bad snippet),
a negative case (idiomatic code stays clean), and the suppression machinery
is tested both ways (a matching lint-allow suppresses and is counted; a
stale tag becomes an unused-suppression finding). The SARIF writer is
checked structurally against the 2.1.0 shape the CI uploader expects.

Runs as a ctest (qpinn_lint_selftest) and standalone:
    python3 tools/test_qpinn_lint.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import qpinn_lint  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

HEADER = "#pragma once\n"


def lint(files: dict[str, str]) -> qpinn_lint.LintReport:
    """Lint a synthetic repo laid out from {rel_path: contents}."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src").mkdir()
        (root / "tests").mkdir()
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return qpinn_lint.run_lint(root)


def rules_hit(report: qpinn_lint.LintReport) -> set[str]:
    return {finding.rule for finding in report.findings}


class StripCodeTest(unittest.TestCase):
    def test_comments_and_strings_are_blanked(self):
        code = ('int x = 1;  // the new rand() seed\n'
                'const char* s = "std::cout << new";\n'
                '/* srand(7) */ int y = 2;\n')
        stripped = qpinn_lint.strip_code(code)
        self.assertNotIn("new", stripped)
        self.assertNotIn("rand", stripped)
        self.assertNotIn("cout", stripped)
        self.assertIn("int x = 1;", stripped)
        self.assertEqual(code.count("\n"), stripped.count("\n"))

    def test_positions_are_preserved(self):
        code = 'a /* mid */ b\n'
        stripped = qpinn_lint.strip_code(code)
        self.assertEqual(len(code), len(stripped))
        self.assertEqual(stripped.index("b"), code.index("b"))


class TokenRuleTest(unittest.TestCase):
    def test_banned_random_fires(self):
        report = lint({"src/a.cpp": "int x = rand();\nsrand(7);\n"})
        self.assertIn("banned-random", rules_hit(report))

    def test_tensor_rand_is_clean(self):
        report = lint(
            {"src/a.cpp": "auto t = Tensor::rand(shape, rng, -1.0, 1.0);\n"})
        self.assertNotIn("banned-random", rules_hit(report))

    def test_banned_stdout(self):
        bad = lint({"src/a.cpp": 'std::cout << "hi";\n'})
        good = lint({"src/a.cpp": 'QPINN_LOG_INFO("hi");\n'})
        self.assertIn("banned-stdout", rules_hit(bad))
        self.assertNotIn("banned-stdout", rules_hit(good))

    def test_naked_new(self):
        bad = lint({"src/a.cpp": "auto* p = new int(3);\n"})
        good = lint({"src/a.cpp": "auto p = std::make_unique<int>(3);\n"})
        self.assertIn("naked-new", rules_hit(bad))
        self.assertNotIn("naked-new", rules_hit(good))

    def test_banned_raw_storage_exempts_pool(self):
        snippet = "auto b = std::make_shared<std::vector<double>>(64);\n"
        bad = lint({"src/tensor/tensor.cpp": snippet})
        exempt = lint({"src/tensor/storage_pool.cpp": snippet})
        self.assertIn("banned-raw-storage", rules_hit(bad))
        self.assertNotIn("banned-raw-storage", rules_hit(exempt))

    def test_banned_intrinsics_exempts_simd_header(self):
        snippet = "#include <immintrin.h>\n__m256d v = _mm256_set1_pd(0);\n"
        bad = lint({"src/tensor/kernels.cpp": snippet})
        exempt = lint({"src/tensor/simd.hpp": HEADER + snippet})
        self.assertIn("banned-intrinsics", rules_hit(bad))
        self.assertNotIn("banned-intrinsics", rules_hit(exempt))

    def test_banned_node_construction_exempts_autodiff(self):
        snippet = "auto n = std::make_shared<Node>();\n"
        bad = lint({"src/core/trainer.cpp": snippet})
        exempt = lint({"src/autodiff/ops.cpp": snippet})
        self.assertIn("banned-node-construction", rules_hit(bad))
        self.assertNotIn("banned-node-construction", rules_hit(exempt))

    def test_banned_raw_sockets(self):
        bad = lint({"src/dist/peer.cpp": "recv(fd, buf, len, 0);\n"})
        member = lint({"src/dist/peer.cpp": "socket_.connect(addr);\n"})
        exempt = lint(
            {"src/dist/transport.cpp": "recv(fd, buf, len, 0);\n"})
        self.assertIn("banned-raw-sockets", rules_hit(bad))
        self.assertNotIn("banned-raw-sockets", rules_hit(member))
        self.assertNotIn("banned-raw-sockets", rules_hit(exempt))


class ServeForwardPurityTest(unittest.TestCase):
    def test_fires_on_tape_construction_in_serve(self):
        for snippet in ("auto v = Variable::leaf(t);\n",
                        "auto v = make_op(fn, parents);\n",
                        "auto gs = autodiff::grad(loss, params);\n",
                        "CaptureScope s(plan_, CaptureKind::kTraining);\n"):
            report = lint({"src/serve/compiled_model.cpp": snippet})
            self.assertIn("serve-forward-purity", rules_hit(report),
                          f"should fire on: {snippet!r}")

    def test_scoped_to_serve_only(self):
        report = lint(
            {"src/core/trainer.cpp": "auto gs = autodiff::grad(l, ps);\n"})
        self.assertNotIn("serve-forward-purity", rules_hit(report))

    def test_forward_only_serving_code_is_clean(self):
        snippet = ("autodiff::NoGradGuard no_grad;\n"
                   "plan::CaptureScope scope(plan_, "
                   "plan::CaptureKind::kForwardOnly);\n"
                   "auto out = model_->forward(Variable::constant(input_));\n"
                   "if (p.requires_grad()) {}\n")
        report = lint({"src/serve/compiled_model.cpp": snippet})
        self.assertNotIn("serve-forward-purity", rules_hit(report))


class PlanThunkMutationTest(unittest.TestCase):
    def test_fires_on_thunk_mutation_outside_autodiff(self):
        for snippet in ("plan.set_thunks(std::move(ts));\n",
                        "auto ts = plan.take_thunks();\n"):
            report = lint({"src/core/trainer.cpp": snippet})
            self.assertIn("plan-thunk-mutation", rules_hit(report),
                          f"should fire on: {snippet!r}")

    def test_fires_on_storage_binding_outside_autodiff(self):
        for snippet in ("auto ts = plan.take_recorded();\n",
                        "plan.bind_buffers(std::move(ts), slots);\n"):
            report = lint({"src/serve/compiled_model.cpp": snippet})
            self.assertIn("plan-thunk-mutation", rules_hit(report),
                          f"should fire on: {snippet!r}")

    def test_exempts_autodiff_pass_pipeline(self):
        snippet = ("auto ts = plan.take_thunks();\n"
                   "plan.set_thunks(std::move(ts));\n"
                   "plan.bind_buffers(plan.take_recorded(), {});\n")
        report = lint({"src/autodiff/plan_passes.cpp": snippet})
        self.assertNotIn("plan-thunk-mutation", rules_hit(report))

    def test_binding_on_demand_is_clean(self):
        report = lint({"src/core/trainer.cpp": "plan.ensure_bound();\n"})
        self.assertNotIn("plan-thunk-mutation", rules_hit(report))

    def test_reading_thunks_is_clean(self):
        report = lint(
            {"src/core/trainer.cpp": "const auto& ts = plan.thunks();\n"})
        self.assertNotIn("plan-thunk-mutation", rules_hit(report))


class NestedReverseDerivativesTest(unittest.TestCase):
    def test_fires_outside_autodiff_and_jets(self):
        for snippet in ("auto u_t = ad::partial(u, X, 1);\n",
                        "auto u_xx = partial_n(u, X, 0, 2);\n",
                        "auto u_xt = autodiff::partial_mixed(u, X, 0, 1);\n",
                        "auto j = nn::partial_jet(u, X, {2, 1});\n"):
            report = lint({"src/core/field_model.cpp": snippet})
            self.assertIn("nested-reverse-derivatives", rules_hit(report),
                          f"should fire on: {snippet!r}")

    def test_jets_and_autodiff_are_clean(self):
        snippet = ("auto j = nn::partial_jet(u, X, {2, 1});\n"
                   "Jet jet_by_partial(Module& m, const Jet& x);\n")
        report = lint({"src/nn/jet.cpp": snippet,
                       "src/autodiff/derivatives.cpp":
                           "return partial(partial(y, x, d), x, d);\n",
                       "src/core/field_model.cpp":
                           "auto raw = net.forward_jet(jet);\n"
                           "auto j = nn::jet_by_partial(net, jet);\n"})
        self.assertNotIn("nested-reverse-derivatives", rules_hit(report))


class SingleTrainingDriverTest(unittest.TestCase):
    def test_fires_on_private_training_loops(self):
        for snippet in (
                "const std::vector<Variable> g = grad(loss, params);\n",
                "auto g = autodiff::grad(loss, params);\n",
                "auto g = ad::grad_single(loss, energy);\n",
                "optim::Adam optimizer(params, adam_config);\n",
                "auto o = std::make_unique<optim::Sgd>(params, c);\n",
                "optim::Rmsprop optimizer{params, c};\n",
                "auto r = optim::lbfgs_minimize(params, closure, c);\n"):
            report = lint({"src/core/eigen_pinn.cpp": snippet})
            self.assertIn("single-training-driver", rules_hit(report),
                          f"should fire on: {snippet!r}")

    def test_exempts_trainer_autodiff_and_optim(self):
        report = lint({
            "src/core/trainer.cpp":
                "const auto grads = grad(loss, params_);\n"
                "optimizer_ = std::make_unique<optim::Adam>(params_, c);\n"
                "return optim::lbfgs_minimize(params_, closure, c);\n",
            "src/autodiff/derivatives.cpp":
                "return grad(y, {x}, {}, options)[0];\n",
            "src/optim/lbfgs.cpp": "optim::Sgd probe(params, c);\n"})
        self.assertNotIn("single-training-driver", rules_hit(report))

    def test_types_configs_and_similar_names_are_clean(self):
        report = lint({"src/core/trainer.hpp": HEADER +
                       "std::unique_ptr<optim::Adam> optimizer_;\n"
                       "optim::AdamConfig adam{};\n"
                       "optim::LbfgsResult run_second_stage(int e);\n"
                       "Tensor tanh_grad(const Tensor& g, const Tensor& t);\n"
                       "bool b = y.requires_grad();\n"
                       "auto g = node->grad(x);\n"})
        self.assertNotIn("single-training-driver", rules_hit(report))

    def test_fires_on_the_private_eigen_loop(self):
        # The eigen-PINN's former private Adam loop.
        report = lint({"src/core/eigen_pinn.cpp":
                       "  optim::Adam optimizer(params, adam_config);\n"
                       "  for (;;) {\n"
                       "    const std::vector<Variable> grads = "
                       "grad(loss, params);\n"
                       "  }\n"})
        lines = [f.line for f in report.findings
                 if f.rule == "single-training-driver"]
        self.assertEqual([1, 3], lines)


class DeterminismRuleTest(unittest.TestCase):
    def test_banned_fma_fires_on_std_and_builtin(self):
        report = lint({"src/a.cpp": "double y = std::fma(a, b, c);\n"
                                    "double z = __builtin_fma(a, b, c);\n"})
        self.assertEqual(
            2, sum(1 for f in report.findings if f.rule == "banned-fma"))

    def test_banned_fma_ignores_kernel_table_calls(self):
        report = lint({"src/a.cpp": "acc = V::fma(x, w, acc);\n"})
        self.assertNotIn("banned-fma", rules_hit(report))

    def test_libm_sincos_fires_in_the_tensor_layer(self):
        report = lint({"src/tensor/executors.hpp":
                       HEADER + "o[i] = std::sin(a[i]);\n"
                       "o[i] = std::cosf(a[i]);\n"
                       "o[i] = ::sin(a[i]);\n"
                       "sincos(x, &s, &c);\n"})
        lines = [f.line for f in report.findings
                 if f.rule == "banned-libm-sincos"]
        self.assertEqual([2, 3, 4, 5], lines)

    def test_libm_sincos_allows_table_kernels_and_other_layers(self):
        report = lint({
            "src/tensor/executors.hpp":
                HEADER + "template <class T>\n"
                "void sin(const T* a, T* o, std::size_t n) {\n"
                "  detail::sweep(a, o, n, simd::table<T>().sin);\n"
                "}\n"
                "exec::cos<double>(a, o, n);\n"
                "t.bias_sin = &ew_bias_sin<V>;\n",
            "src/quantum/analytic.cpp": "double y = std::sin(k * x);\n"})
        self.assertNotIn("banned-libm-sincos", rules_hit(report))

    def test_libm_sincos_fix_up_needs_its_allow_tag(self):
        body = ("return kCos ? std::cos(x) : std::sin(x);"
                "  // lint-allow: banned-libm-sincos\n")
        tagged = lint({"src/tensor/simd.hpp": HEADER + body})
        bare = lint({"src/tensor/simd.hpp":
                     HEADER + "return kCos ? std::cos(x) : std::sin(x);\n"})
        self.assertNotIn("banned-libm-sincos", rules_hit(tagged))
        self.assertEqual(1, tagged.suppressions_used)
        self.assertIn("banned-libm-sincos", rules_hit(bare))

    def test_banned_fma_exempts_simd_header(self):
        report = lint(
            {"src/tensor/simd.hpp":
             HEADER + "static reg fma(reg a, reg b, reg c);\n"})
        self.assertNotIn("banned-fma", rules_hit(report))

    def test_banned_wallclock_fires(self):
        report = lint({"src/a.cpp":
                       "auto t0 = std::chrono::steady_clock::now();\n"
                       "auto t1 = std::time(nullptr);\n"
                       "gettimeofday(&tv, nullptr);\n"})
        self.assertEqual(
            3,
            sum(1 for f in report.findings if f.rule == "banned-wallclock"))

    def test_banned_wallclock_exempts_timer_and_logging(self):
        clock = "using clock = std::chrono::steady_clock;\n"
        timer = lint({"src/util/timer.hpp": HEADER + clock})
        logging = lint({"src/util/logging.cpp": clock})
        self.assertNotIn("banned-wallclock", rules_hit(timer))
        self.assertNotIn("banned-wallclock", rules_hit(logging))

    def test_banned_wallclock_ignores_similar_identifiers(self):
        report = lint({"src/a.cpp": "double time_step = dt;\n"
                                    "auto x = wall_time(step);\n"})
        self.assertNotIn("banned-wallclock", rules_hit(report))

    def test_unordered_float_reduce_fires_on_direct_types(self):
        report = lint({"src/a.cpp":
                       "std::unordered_map<std::string, double> sums;\n"
                       "std::unordered_set<float> seen;\n"})
        self.assertEqual(
            2, sum(1 for f in report.findings
                   if f.rule == "banned-unordered-float-reduce"))

    def test_unordered_float_reduce_ignores_nested_types(self):
        report = lint({"src/a.cpp":
                       "std::unordered_map<std::size_t, "
                       "std::vector<std::vector<double>>> buckets;\n"
                       "std::unordered_map<Node*, Variable> grads;\n"})
        self.assertNotIn("banned-unordered-float-reduce", rules_hit(report))

    def test_catch_all_swallow_fires(self):
        report = lint({"src/a.cpp":
                       "void f() {\n"
                       "  try { g(); } catch (...) {\n"
                       "    cleanup();\n"
                       "  }\n"
                       "}\n"})
        findings = [f for f in report.findings
                    if f.rule == "catch-all-swallow"]
        self.assertEqual(1, len(findings))
        self.assertEqual(2, findings[0].line)

    def test_catch_all_rethrow_and_capture_are_clean(self):
        report = lint({"src/a.cpp":
                       "void f() {\n"
                       "  try { g(); } catch (...) { cleanup(); throw; }\n"
                       "  try { g(); } catch (...) {\n"
                       "    err = std::current_exception();\n"
                       "  }\n"
                       "}\n"})
        self.assertNotIn("catch-all-swallow", rules_hit(report))

    def test_naked_float_cast_fires_on_every_spelling(self):
        for snippet in ("float y = static_cast<float>(x);\n",
                        "float y = (float)x;\n",
                        "float y = float(x);\n"):
            report = lint({"src/core/trainer.cpp": snippet})
            self.assertIn("banned-naked-float-cast", rules_hit(report),
                          f"should fire on: {snippet!r}")

    def test_naked_float_cast_exempts_tensor_layer(self):
        report = lint({"src/tensor/kernels_f32.cpp":
                       "out[i] = static_cast<float>(src[i]);\n"})
        self.assertNotIn("banned-naked-float-cast", rules_hit(report))

    def test_naked_float_cast_ignores_sizeof_and_params(self):
        report = lint({"src/autodiff/precision.cpp":
                       "bytes += n * sizeof(float);\n"
                       "auto f = [](float v) { return v; };\n"})
        self.assertNotIn("banned-naked-float-cast", rules_hit(report))

    def test_catch_all_exempts_teardown_paths(self):
        snippet = "void f() { try { g(); } catch (...) { } }\n"
        report = lint({"src/dist/launcher.cpp": snippet,
                       "src/dist/transport.cpp": snippet})
        self.assertNotIn("catch-all-swallow", rules_hit(report))


class StructuralRuleTest(unittest.TestCase):
    def test_single_dispatch_policy_fires_on_grains_and_flags(self):
        report = lint({"src/tensor/a.cpp":
                       "void f() {\n"
                       "  parallel_for(n, [&](size_t b, size_t e) {}, 64);\n"
                       "  parallel_for(n, 2048, [&](size_t b, size_t e) {\n"
                       "  });\n"
                       "  parallel_reduce<double>(n, cost::kStream, 0.0,\n"
                       "      chunk, combine, /*grain=*/16);\n"
                       "  pool.for_each_chunk(n, fn, /*dispatch=*/false);\n"
                       "}\n"})
        lines = sorted(f.line for f in report.findings
                       if f.rule == "single-dispatch-policy")
        self.assertEqual([2, 3, 5, 7], lines)

    def test_single_dispatch_policy_clean_on_policy_calls(self):
        report = lint({
            "src/tensor/a.cpp":
                "void f() {\n"
                "  parallel_for(n, per_elem<T>(cost::kPoly), [&](size_t b,\n"
                "                                    size_t e) { g(b, e); });\n"
                "  parallel_reduce<double>(n, cost::kStream, 0.0, chunk,\n"
                "      [](double x, double y) { return x + y; });\n"
                "  pool.for_each_chunk(n, fn, dispatch_pays(w, chunks));\n"
                "  pool.for_each_chunk(n, fn);\n"
                "}\n",
            # The policy's own layer may pass literal flags.
            "src/parallel/b.cpp":
                "void g() { pool.for_each_chunk(n, fn, false); }\n"})
        self.assertNotIn("single-dispatch-policy", rules_hit(report))

    def test_single_placement_fires_outside_the_pool(self):
        report = lint({"src/core/a.cpp":
                       "void f() {\n"
                       "  sched_setaffinity(0, sizeof m, &m);\n"
                       "  pthread_setaffinity_np(t, sizeof m, &m);\n"
                       "  CPU_SET(2, &m);\n"
                       "  CPU_SET_S(2, size, m);\n"
                       "}\n"})
        lines = sorted(f.line for f in report.findings
                       if f.rule == "single-placement")
        self.assertEqual([2, 3, 4, 5], lines)

    def test_single_placement_clean_in_the_pool_and_on_reads(self):
        report = lint({
            "src/parallel/thread_pool.cpp":
                "void place() { CPU_SET(c, &one);\n"
                "  sched_setaffinity(0, sizeof one, &one); }\n",
            "src/core/a.cpp":
                "void f() { place_thread_once(rank);\n"
                "  sched_getaffinity(0, sizeof m, &m);\n"
                "  if (CPU_ISSET(c, &m) && c < CPU_SETSIZE) {} }\n"})
        self.assertNotIn("single-placement", rules_hit(report))

    def test_pragma_once(self):
        bad = lint({"src/a.hpp": "struct A {};\n"})
        good = lint({"src/a.hpp": "// doc comment first is fine\n"
                                  "#pragma once\nstruct A {};\n"})
        self.assertIn("pragma-once", rules_hit(bad))
        self.assertNotIn("pragma-once", rules_hit(good))

    def test_test_coverage(self):
        module = {"src/mod/a.hpp": HEADER + "void f();\n",
                  "src/mod/a.cpp": "void f() {}\n"}
        bad = lint(module)
        good = lint({**module,
                     "tests/a_test.cpp": '#include "mod/a.hpp"\n'})
        self.assertIn("test-coverage", rules_hit(bad))
        self.assertNotIn("test-coverage", rules_hit(good))


class SuppressionTest(unittest.TestCase):
    def test_matching_allow_suppresses_and_is_counted(self):
        report = lint({"src/a.cpp":
                       "auto* p = new Impl();  // lint-allow: naked-new\n"})
        self.assertEqual([], report.findings)
        self.assertEqual(1, report.suppressions_used)

    def test_allow_with_trailing_note_still_matches(self):
        report = lint({"src/a.cpp":
                       "auto* p = new Impl();"
                       "  // lint-allow: naked-new (private ctor)\n"})
        self.assertEqual([], report.findings)

    def test_allow_for_wrong_rule_does_not_suppress(self):
        report = lint({"src/a.cpp":
                       "auto* p = new Impl();  // lint-allow: banned-fma\n"})
        hit = rules_hit(report)
        self.assertIn("naked-new", hit)
        self.assertIn("unused-suppression", hit)

    def test_unused_allow_is_a_finding(self):
        report = lint({"src/a.cpp":
                       "int x = 1;  // lint-allow: banned-wallclock\n"})
        findings = [f for f in report.findings
                    if f.rule == "unused-suppression"]
        self.assertEqual(1, len(findings))
        self.assertIn("banned-wallclock", findings[0].message)


class SarifTest(unittest.TestCase):
    def test_sarif_document_structure(self):
        report = lint({"src/a.cpp": "int x = rand();\n"})
        with tempfile.TemporaryDirectory() as tmp:
            doc = qpinn_lint.sarif_document(report, pathlib.Path(tmp))
        doc = json.loads(json.dumps(doc))  # must be JSON-serializable

        self.assertEqual(qpinn_lint.SARIF_VERSION, doc["version"])
        self.assertEqual(qpinn_lint.SARIF_SCHEMA, doc["$schema"])
        self.assertEqual(1, len(doc["runs"]))
        run = doc["runs"][0]

        driver = run["tool"]["driver"]
        self.assertEqual("qpinn_lint", driver["name"])
        rule_ids = [rule["id"] for rule in driver["rules"]]
        self.assertEqual(len(rule_ids), len(set(rule_ids)))
        for rule in driver["rules"]:
            self.assertTrue(rule["shortDescription"]["text"])
        self.assertIn("unused-suppression", rule_ids)

        self.assertIn("SRCROOT", run["originalUriBaseIds"])
        self.assertTrue(
            run["originalUriBaseIds"]["SRCROOT"]["uri"].endswith("/"))

        self.assertEqual(len(report.findings), len(run["results"]))
        for result in run["results"]:
            self.assertEqual(
                result["ruleId"], rule_ids[result["ruleIndex"]])
            self.assertEqual("error", result["level"])
            self.assertTrue(result["message"]["text"])
            location = result["locations"][0]["physicalLocation"]
            self.assertEqual(
                "SRCROOT", location["artifactLocation"]["uriBaseId"])
            self.assertNotIn("..", location["artifactLocation"]["uri"])
            self.assertGreaterEqual(location["region"]["startLine"], 1)

    def test_clean_run_has_empty_results(self):
        report = lint({"src/a.cpp": "int x = 1;\n"})
        doc = qpinn_lint.sarif_document(report, pathlib.Path("/tmp"))
        self.assertEqual([], doc["runs"][0]["results"])


class RepoCleanTest(unittest.TestCase):
    def test_repo_is_clean_under_all_rules(self):
        report = qpinn_lint.run_lint(REPO_ROOT)
        self.assertEqual(
            [], [str(f) for f in report.findings],
            "repo must lint clean; fix or lint-allow with justification")
        self.assertGreater(report.files_checked, 100)


if __name__ == "__main__":
    unittest.main(verbosity=2)
