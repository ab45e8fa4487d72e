#include "nn/jet.hpp"

#include "autodiff/derivatives.hpp"
#include "autodiff/ops.hpp"
#include "nn/module.hpp"
#include "util/error.hpp"

namespace qpinn::nn {

using autodiff::Variable;
namespace ad = qpinn::autodiff;

namespace {

// Undefined-aware arithmetic: an undefined operand is an exact zero.
Variable times(const Variable& f, const Variable& x) {
  return x.defined() ? ad::mul(f, x) : Variable();
}

Variable plus(const Variable& a, const Variable& b) {
  if (!a.defined()) return b;
  if (!b.defined()) return a;
  return ad::add(a, b);
}

Variable minus(const Variable& a, const Variable& b) {
  if (!b.defined()) return a;
  if (!a.defined()) return ad::neg(b);
  return ad::sub(a, b);
}

/// `value` with every derivative along `order`'s coordinates zero.
Jet zero_jet(Variable value, std::vector<int> order) {
  const std::size_t dims = order.size();
  return Jet{std::move(value), std::vector<Variable>(dims),
             std::vector<Variable>(dims), std::move(order)};
}

}  // namespace

Jet Jet::slice_cols(std::int64_t c0, std::int64_t c1) const {
  const auto slice = [&](const Variable& v) {
    return ad::slice_cols(v, c0, c1);
  };
  return map_linear(*this, slice);
}

Jet Jet::detached() const {
  const auto detach = [](const Variable& v) { return v.detach(); };
  return map_linear(*this, detach);
}

Jet input_jet(const Variable& value, std::vector<int> order,
              const std::vector<double>& scale) {
  const std::int64_t n = value.value().rows();
  const std::int64_t cols = value.value().cols();
  QPINN_CHECK(static_cast<std::int64_t>(order.size()) == cols &&
                  scale.size() == order.size(),
              "input_jet: need one order and one scale per input column");
  Jet jet = zero_jet(value, std::move(order));
  for (std::int64_t k = 0; k < cols; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    QPINN_CHECK(jet.order[kk] >= 0 && jet.order[kk] <= 2,
                "input_jet: orders must be 0, 1 or 2");
    if (jet.order[kk] == 0) continue;
    Tensor direction = Tensor::zeros(Shape{n, cols});
    for (std::int64_t r = 0; r < n; ++r) direction.at(r, k) = scale[kk];
    jet.d1[kk] = Variable::constant(std::move(direction));
  }
  return jet;
}

Jet concat_jets(const std::vector<Jet>& parts) {
  QPINN_CHECK(!parts.empty(), "concat_jets: no parts");
  std::vector<Variable> values;
  for (const Jet& part : parts) values.push_back(part.value);
  Jet out = zero_jet(ad::concat_cols(values), parts.front().order);
  const auto stream = [&](auto member, std::size_t k) {
    bool any = false;
    for (const Jet& part : parts) any = any || (part.*member)[k].defined();
    if (!any) return Variable();
    std::vector<Variable> pieces;
    for (const Jet& part : parts) {
      pieces.push_back(or_zeros((part.*member)[k], part.value.shape()));
    }
    return ad::concat_cols(pieces);
  };
  for (std::size_t k = 0; k < out.dims(); ++k) {
    out.d1[k] = stream(&Jet::d1, k);
    out.d2[k] = stream(&Jet::d2, k);
  }
  return out;
}

std::pair<Jet, Jet> sin_cos(const Jet& a) {
  const Variable s = ad::sin(a.value);
  const Variable c = ad::cos(a.value);
  Jet sj = zero_jet(s, a.order);
  Jet cj = zero_jet(c, a.order);
  for (std::size_t k = 0; k < a.dims(); ++k) {
    const Variable& ak = a.d1[k];
    sj.d1[k] = times(c, ak);
    cj.d1[k] = ak.defined() ? ad::neg(ad::mul(s, ak)) : Variable();
    if (a.order[k] < 2) continue;
    const Variable ak2 = ak.defined() ? ad::square(ak) : Variable();
    sj.d2[k] = minus(times(c, a.d2[k]), times(s, ak2));
    const Variable cos_d2 = plus(times(s, a.d2[k]), times(c, ak2));
    cj.d2[k] = cos_d2.defined() ? ad::neg(cos_d2) : Variable();
  }
  return {std::move(sj), std::move(cj)};
}

Jet hard_ic(const Jet& psi0, const Variable& ramp, const Jet& net,
            std::size_t t_dim) {
  QPINN_CHECK(t_dim < net.dims() && psi0.dims() == net.dims(),
              "hard_ic: coordinate mismatch");
  QPINN_CHECK(net.order[t_dim] <= 1, "hard_ic: t is carried to first order");
  Jet out =
      zero_jet(ad::add(psi0.value, ad::mul(ramp, net.value)), net.order);
  for (std::size_t k = 0; k < net.dims(); ++k) {
    if (net.order[k] < 1) continue;
    if (k == t_dim) {
      // psi0 is t-independent and ∂ramp/∂t = 1: (ramp·net)_t = net +
      // ramp·net_t.
      out.d1[k] = plus(net.value, times(ramp, net.d1[k]));
      continue;
    }
    out.d1[k] = plus(psi0.d1[k], times(ramp, net.d1[k]));
    if (net.order[k] >= 2) {
      out.d2[k] = plus(psi0.d2[k], times(ramp, net.d2[k]));
    }
  }
  return out;
}

Jet partial_jet(const Variable& y, const Variable& x, std::vector<int> order) {
  // Without grad mode every y looks constant; zeros would be silently wrong.
  QPINN_CHECK(ad::grad_mode_enabled(), "partial_jet: needs grad mode");
  Jet jet = zero_jet(y, std::move(order));
  if (!y.requires_grad()) return jet;
  for (std::size_t k = 0; k < jet.dims(); ++k) {
    if (jet.order[k] < 1) continue;
    const auto dim = static_cast<std::int64_t>(k);
    jet.d1[k] = ad::partial(y, x, dim);
    if (jet.order[k] >= 2 && jet.d1[k].requires_grad()) {
      jet.d2[k] = ad::partial(jet.d1[k], x, dim);
    }
  }
  return jet;
}

Jet jet_by_partial(Module& module, const Jet& x) {
  const Tensor& z = x.value.value();
  const auto dims = static_cast<std::int64_t>(x.dims());
  const auto constant = [](const Variable& v) {
    return !v.defined() || !v.requires_grad();
  };
  bool input = z.rank() == 2 && z.cols() == dims && constant(x.value);
  // Along each coordinate: its d1 column (the chain-rule factor), that
  // column squared, and the order the reverse sweep carries (0 where d1 is
  // an exact zero).
  std::vector<Variable> slope(x.dims()), slope2(x.dims());
  std::vector<int> order(x.dims(), 0);
  for (std::int64_t k = 0; input && k < dims; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    const Variable& dk = x.d1[kk];
    input = !x.d2[kk].defined() && constant(dk);
    if (!input || !dk.defined()) continue;
    const Tensor& d = dk.value();
    input = d.same_shape(z);
    for (std::int64_t r = 0; input && r < d.rows(); ++r) {
      for (std::int64_t j = 0; j < d.cols(); ++j) {
        if (j != k && d.at(r, j) != 0.0) input = false;
      }
    }
    slope[kk] = ad::slice_cols(dk, k, k + 1);
    if (x.order[kk] >= 2) slope2[kk] = ad::square(slope[kk]);
    order[kk] = x.order[kk];
  }
  if (!input) {
    throw ValueError(
        "jet_by_partial: expects an input jet (no grad path, no second "
        "derivatives, d1[k] zero outside column k)");
  }

  const Variable leaf = Variable::leaf(z);
  const Variable y = module.forward(leaf);
  std::vector<Jet> channels;
  for (std::int64_t c = 0; c < y.value().cols(); ++c) {
    Jet jet = partial_jet(ad::slice_cols(y, c, c + 1), leaf, order);
    jet.order = x.order;
    for (std::size_t k = 0; k < x.dims(); ++k) {
      jet.d1[k] = times(slope[k], jet.d1[k]);
      jet.d2[k] = times(slope2[k], jet.d2[k]);
    }
    channels.push_back(std::move(jet));
  }
  return concat_jets(channels);
}

Variable or_zeros(const Variable& v, const Shape& shape) {
  return v.defined() ? v : Variable::constant(Tensor::zeros(shape));
}

}  // namespace qpinn::nn
