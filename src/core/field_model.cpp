#include "core/field_model.hpp"

#include <tuple>

#include "util/error.hpp"

namespace qpinn::core {

using autodiff::Variable;
using namespace autodiff;

InputNormalization InputNormalization::for_domain(double x_lo, double x_hi,
                                                  double t_lo, double t_hi) {
  QPINN_CHECK(x_hi > x_lo && t_hi > t_lo,
              "normalization needs a non-degenerate domain");
  InputNormalization norm;
  norm.x_center = 0.5 * (x_lo + x_hi);
  norm.x_half_span = 0.5 * (x_hi - x_lo);
  norm.t_center = 0.5 * (t_lo + t_hi);
  norm.t_half_span = 0.5 * (t_hi - t_lo);
  return norm;
}

FieldModel::FieldModel(std::unique_ptr<nn::Module> backbone,
                       std::optional<HardIc> hard_ic,
                       std::optional<InputNormalization> normalization)
    : backbone_(std::move(backbone)),
      hard_ic_(std::move(hard_ic)),
      normalization_(normalization) {
  QPINN_CHECK(backbone_ != nullptr, "FieldModel needs a backbone");
  space_dims_ = backbone_->input_dim() - 1;
  QPINN_CHECK(space_dims_ == 1 || space_dims_ == 2,
              "FieldModel backbone must take (x, t) or (x, y, t) input");
  QPINN_CHECK(backbone_->output_dim() == 2,
              "FieldModel backbone must emit (u, v)");
  if (hard_ic_) {
    QPINN_CHECK(static_cast<bool>(hard_ic_->psi0),
                "hard IC requires a psi0 field op");
  }
}

FieldModel::FieldModel(std::unique_ptr<nn::Module> backbone, double a,
                       double b)
    : backbone_(std::move(backbone)), walls_(std::pair{a, b}) {
  QPINN_CHECK(backbone_ != nullptr, "FieldModel needs a backbone");
  QPINN_CHECK(backbone_->input_dim() == 1 && backbone_->output_dim() == 1,
              "a stationary FieldModel backbone maps x to one output");
  QPINN_CHECK(b > a, "stationary FieldModel walls need a < b");
}

namespace {

/// 4 (x - a)(b - x) / (b - a)^2: zero at the walls, O(1) inside.
Variable envelope(const Variable& x, double a, double b) {
  const double envelope_scale = 4.0 / ((b - a) * (b - a));
  return scale(mul(add_scalar(x, -a), add_scalar(neg(x), b)), envelope_scale);
}

}  // namespace

std::pair<Variable, Variable> envelope_field(nn::Module& net, const Variable& x,
                                             double a, double b) {
  const Variable e = envelope(x, a, b);
  const nn::Jet n = net.forward_jet(nn::input_jet(x.detach(), {2}, {1.0}));
  // e = s (x - a)(b - x), so e' = s (a + b - 2x) and e'' = -2s.
  const double s = 4.0 / ((b - a) * (b - a));
  const Variable e_x = scale(add_scalar(scale(x.detach(), -2.0), a + b), s);
  Variable psi_xx =
      add(scale(mul(e_x, n.d1[0]), 2.0), scale(n.value, -2.0 * s));
  if (n.d2[0].defined()) psi_xx = add(mul(e, n.d2[0]), psi_xx);
  return {mul(e, n.value), psi_xx};
}

Variable FieldModel::network_input(const Variable& X) const {
  const std::int64_t s = space_dims_;
  QPINN_CHECK_SHAPE(X.value().rank() == 2 && X.value().cols() == s + 1,
                    "FieldModel expects (N, " + std::to_string(s + 1) +
                        ") input, got " + shape_to_string(X.shape()));
  if (!normalization_) return X;
  const InputNormalization& n = *normalization_;
  const auto normalized = [&](std::int64_t c, double center, double half) {
    return scale(add_scalar(slice_cols(X, c, c + 1), -center), 1.0 / half);
  };
  std::vector<Variable> columns{normalized(0, n.x_center, n.x_half_span)};
  if (s == 2) columns.push_back(normalized(1, n.y_center, n.y_half_span));
  columns.push_back(normalized(s, n.t_center, n.t_half_span));
  return concat_cols(columns);
}

Variable FieldModel::forward(const Variable& X) {
  if (walls_) {
    return mul(envelope(X, walls_->first, walls_->second),
               backbone_->forward(X));
  }
  const Variable raw = backbone_->forward(network_input(X));
  if (!hard_ic_) return raw;

  const Variable x = slice_cols(X, 0, space_dims_);
  const Variable t = slice_cols(X, space_dims_, space_dims_ + 1);
  const Variable ramp = add_scalar(t, -hard_ic_->t0);
  auto [u0, v0] = hard_ic_->psi0(x);
  const Variable u = add(u0, mul(ramp, slice_cols(raw, 0, 1)));
  const Variable v = add(v0, mul(ramp, slice_cols(raw, 1, 2)));
  return concat_cols({u, v});
}

FieldDerivatives FieldModel::derivatives(const Variable& X) {
  if (walls_) {
    FieldDerivatives d;
    std::tie(d.u, d.u_xx) =
        envelope_field(*backbone_, X.detach(), walls_->first, walls_->second);
    return d;
  }
  // Coordinates 0..S-1 are space (to second order), coordinate S is t
  // (first order). The jet carries the X-derivatives itself, so no reverse
  // sweep needs X: detaching keeps the parameter sweep out of the input
  // layers. No normalization is the identity map, whose half-spans are 1.
  const std::int64_t s = space_dims_;
  const auto ts = static_cast<std::size_t>(s);
  const Variable Xc = X.detach();
  const InputNormalization n = normalization_.value_or(InputNormalization{});
  std::vector<int> order(ts + 1, 2);
  order[ts] = 1;
  std::vector<double> direction{1.0 / n.x_half_span};
  if (s == 2) direction.push_back(1.0 / n.y_half_span);
  direction.push_back(1.0 / n.t_half_span);
  const nn::Jet raw = backbone_->forward_jet(
      nn::input_jet(network_input(Xc), order, direction));
  nn::Jet u = raw.slice_cols(0, 1);
  nn::Jet v = raw.slice_cols(1, 2);
  if (hard_ic_) {
    // psi0 on its own leaf over X's storage. It has no parameters, so its
    // derivatives are data. The ramp runs along coordinate S (t).
    const Variable Xl = Variable::leaf(X.value());
    auto [u0, v0] = hard_ic_->psi0(slice_cols(Xl, 0, s));
    const Variable ramp = add_scalar(slice_cols(Xc, s, s + 1), -hard_ic_->t0);
    order[ts] = 0;
    const auto field = [&](const Variable& psi0, const nn::Jet& net) {
      const nn::Jet data =
          nn::partial_jet(  // lint-allow: nested-reverse-derivatives
              psi0, Xl, order);
      return nn::hard_ic(data.detached(), ramp, net, ts);
    };
    u = field(u0, u);
    v = field(v0, v);
  }
  const Shape& column = u.value.shape();
  const auto laplacian = [&](const nn::Jet& f) {
    const Variable xx = nn::or_zeros(f.d2[0], column);
    return s == 1 ? xx : add(xx, nn::or_zeros(f.d2[1], column));
  };
  FieldDerivatives d;
  d.u = u.value;
  d.v = v.value;
  d.u_t = nn::or_zeros(u.d1[ts], column);
  d.v_t = nn::or_zeros(v.d1[ts], column);
  d.u_xx = laplacian(u);
  d.v_xx = laplacian(v);
  return d;
}

Tensor FieldModel::evaluate(const Tensor& X) {
  NoGradGuard guard;
  const Variable input = Variable::constant(X);
  return forward(input).value();
}

std::shared_ptr<FieldModel> make_field_model(const FieldModelConfig& config) {
  nn::MlpConfig mlp;
  mlp.in_dim = 2;
  mlp.out_dim = 2;
  mlp.hidden = config.hidden;
  mlp.activation = config.activation;
  mlp.fourier = config.fourier;
  if (config.x_period > 0.0) {
    // The backbone sees normalized x, so convert the period accordingly.
    const double period =
        config.normalization
            ? config.x_period / config.normalization->x_half_span
            : config.x_period;
    mlp.periods = {period, 0.0};
  }
  mlp.seed = config.seed;
  return std::make_shared<FieldModel>(std::make_unique<nn::Mlp>(mlp),
                                      config.hard_ic, config.normalization);
}

}  // namespace qpinn::core
