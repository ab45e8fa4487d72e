// T4 — autodiff cost table: per-point wall-clock of the network forward
// pass versus the first-, second-, and third-order derivative chains a
// PDE residual needs, and the resulting cost multiplier.
//
// Shape expected: each extra derivative order roughly doubles-and-change
// the work (the loss-evaluation cost model c ~ 1 + sum 2^order per
// occurrence), and the parameter-gradient pass adds a comparable factor.
// The jet rows compute the same u_t + u_xx by one forward Taylor jet
// (nn/jet.hpp) instead of nested reverse sweeps, then one reverse sweep
// for the parameter gradient.
#include "exp_common.hpp"

#include "autodiff/derivatives.hpp"
#include "autodiff/grad.hpp"
#include "nn/mlp.hpp"

namespace {

using namespace qpinn;
using namespace qpinn::autodiff;

double time_of(const std::function<void()>& body, int repeats) {
  body();  // warm-up
  Stopwatch watch;
  for (int r = 0; r < repeats; ++r) body();
  return watch.seconds() / repeats;
}

}  // namespace

int main() {
  log::set_level(log::Level::kWarn);
  exp::print_mode_banner("T4: autodiff derivative-order cost");
  const int repeats = exp::full() ? 30 : 8;
  const std::int64_t n = exp::full() ? 4096 : 1024;

  nn::MlpConfig mc;
  mc.in_dim = 2;
  mc.out_dim = 2;
  mc.hidden = {64, 64, 64};
  mc.seed = 1;
  nn::Mlp net(mc);
  Rng rng(2);
  const Tensor X = Tensor::rand({n, 2}, rng, -1.0, 1.0);
  const auto params = net.parameters();

  const double t_forward_nograd = time_of(
      [&] {
        NoGradGuard guard;
        net.forward(Variable::constant(X));
      },
      repeats);
  const double t_forward = time_of(
      [&] { net.forward(Variable::constant(X)); }, repeats);
  const double t_param_grad = time_of(
      [&] {
        const Variable loss = mse(net.forward(Variable::constant(X)));
        grad(loss, params);
      },
      repeats);
  const double t_first = time_of(
      [&] {
        const Variable Xv = Variable::leaf(X, true);
        const Variable u = slice_cols(net.forward(Xv), 0, 1);
        const Variable loss = mse(partial(u, Xv, 1));
        grad(loss, params);
      },
      repeats);
  const double t_second = time_of(
      [&] {
        const Variable Xv = Variable::leaf(X, true);
        const Variable u = slice_cols(net.forward(Xv), 0, 1);
        const Variable loss = mse(add(partial(u, Xv, 1),
                                      partial_n(u, Xv, 0, 2)));
        grad(loss, params);
      },
      repeats);
  // The jet carries (value, d/dx, d/dt, d2/dx2) through each layer.
  const auto jet_loss = [&] {
    const nn::Jet jet = net.forward_jet(
        nn::input_jet(Variable::constant(X), {2, 1}, {1.0, 1.0}));
    return mse(add(slice_cols(jet.d1[1], 0, 1), slice_cols(jet.d2[0], 0, 1)));
  };
  const double t_jet = time_of([&] { jet_loss(); }, repeats);
  const double t_jet_grad =
      time_of([&] { grad(jet_loss(), params); }, repeats);
  const double t_third = time_of(
      [&] {
        const Variable Xv = Variable::leaf(X, true);
        const Variable u = slice_cols(net.forward(Xv), 0, 1);
        const Variable loss = mse(partial_n(u, Xv, 0, 3));
        grad(loss, params);
      },
      repeats);

  const double per_point = 1e9 / static_cast<double>(n);
  Table table({"stage", "total ms", "ns / point", "x forward"});
  auto add = [&](const char* name, double seconds) {
    table.add_row({name, Table::fmt(seconds * 1e3, 3),
                   Table::fmt(seconds * per_point, 0),
                   Table::fmt(seconds / t_forward, 2)});
  };
  add("forward (no graph)", t_forward_nograd);
  add("forward (graph)", t_forward);
  add("+ parameter gradient", t_param_grad);
  add("+ u_t residual (1st order)", t_first);
  add("+ u_t, u_xx residual (2nd order)", t_second);
  add("u_t + u_xx by jets", t_jet);
  add("u_t + u_xx by jets + parameter gradient", t_jet_grad);
  add("+ u_xxx residual (3rd order)", t_third);
  exp::emit(table, "T4 - cost vs derivative order (MLP 2-64-64-64-2)",
            "exp_t4_autodiff_cost.csv");
  std::printf(
      "shape check: 2nd-order residual / plain parameter gradient = %.2f\n"
      "(cost grows roughly geometrically with derivative order)\n"
      "jets: 2nd-order residual + parameter gradient = %.2fx forward "
      "(reverse chain %.2fx)\n",
      t_second / t_param_grad, t_jet_grad / t_forward, t_second / t_forward);
  return 0;
}
