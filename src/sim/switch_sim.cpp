#include "sim/switch_sim.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace caml {

int SimConfig::device_strength(const Transistor& t) const {
  const double mobility = t.type == MosType::kPmos ? pmos_mobility : 1.0;
  const double effective = t.width_um * mobility / t.length_um * 0.03;  // normalized to L=30nm
  const double ratio = effective / unit_width_um;
  const int cls = base_strength + static_cast<int>(std::lround(std::log2(std::max(ratio, 1e-6))));
  return std::clamp(cls, min_strength, max_strength);
}

SwitchSim::SwitchSim(const Cell& cell, SimConfig config) : cell_(&cell), config_(config) {
  rebind();
}

void SwitchSim::bind(const Cell& cell) {
  cell_ = &cell;
  rebind();
}

void SwitchSim::reserve(std::size_t nets, std::size_t transistors) {
  device_gate_.reserve(transistors);
  device_is_pmos_.reserve(transistors);
  device_strength_.reserve(transistors);
  adj_offset_.reserve(nets + 1);
  adj_.reserve(2 * transistors);
  gate_offset_.reserve(nets + 1);
  gate_list_.reserve(transistors);
  csr_cursor_.reserve(nets);
  value_.reserve(nets);
  strength_.reserve(nets);
  retained_.reserve(nets);
  driven_.reserve(nets);
  pinned_x_.reserve(nets);
  cond_.reserve(transistors);
  queued_.reserve(nets);
  // The queued_ guard keeps each net in the worklist at most once, so
  // `nets` entries bound the list for the whole propagation.
  worklist_.reserve(nets);
  previous_.reserve(nets);
  batch_state_.reserve(nets);
}

void SwitchSim::rebind() {
  const Cell& cell = *cell_;
  const std::size_t nets = cell.num_nets();
  const std::size_t devices = cell.num_transistors();

  device_gate_.resize(devices);
  device_is_pmos_.resize(devices);
  device_strength_.resize(devices);
  for (std::size_t t = 0; t < devices; ++t) {
    const Transistor& tr = cell.transistors()[t];
    device_gate_[t] = tr.gate;
    device_is_pmos_[t] = tr.type == MosType::kPmos ? 1 : 0;
    device_strength_[t] = config_.device_strength(tr);
  }

  // Channel CSR. Filling in ascending transistor order (drain arc before
  // source arc) reproduces the per-net visit order of the former
  // vector-of-vectors adjacency exactly. Each device appends one arc to
  // each of its two nets, so swapping the last device's drain and source
  // leaves every per-net list unchanged — collapse_defects()' unordered
  // short key depends on this.
  adj_offset_.assign(nets + 1, 0);
  for (const Transistor& tr : cell.transistors()) {
    ++adj_offset_[static_cast<std::size_t>(tr.drain) + 1];
    ++adj_offset_[static_cast<std::size_t>(tr.source) + 1];
  }
  for (std::size_t n = 0; n < nets; ++n) adj_offset_[n + 1] += adj_offset_[n];
  adj_.resize(2 * devices);
  csr_cursor_.assign(adj_offset_.begin(), adj_offset_.begin() + static_cast<std::ptrdiff_t>(nets));
  for (std::size_t t = 0; t < devices; ++t) {
    const Transistor& tr = cell.transistors()[t];
    const std::int32_t s = device_strength_[t];
    adj_[csr_cursor_[static_cast<std::size_t>(tr.drain)]++] =
        ChannelArc{tr.source, static_cast<TransistorId>(t), s};
    adj_[csr_cursor_[static_cast<std::size_t>(tr.source)]++] =
        ChannelArc{tr.drain, static_cast<TransistorId>(t), s};
  }

  // Gate-load CSR (which conductions a net value change invalidates).
  gate_offset_.assign(nets + 1, 0);
  for (std::size_t t = 0; t < devices; ++t) {
    ++gate_offset_[static_cast<std::size_t>(device_gate_[t]) + 1];
  }
  for (std::size_t n = 0; n < nets; ++n) gate_offset_[n + 1] += gate_offset_[n];
  gate_list_.resize(devices);
  csr_cursor_.assign(gate_offset_.begin(),
                     gate_offset_.begin() + static_cast<std::ptrdiff_t>(nets));
  for (std::size_t t = 0; t < devices; ++t) {
    gate_list_[csr_cursor_[static_cast<std::size_t>(device_gate_[t])]++] =
        static_cast<TransistorId>(t);
  }

  value_.assign(nets, Sig::kZ);
  strength_.assign(nets, 0);
  retained_.assign(nets, Sig::kZ);
  driven_.assign(nets, 0);
  pinned_x_.assign(nets, 0);
  cond_.assign(devices, Conduction::kOff);
  queued_.assign(nets, 0);
  previous_.assign(nets, Sig::kZ);
  worklist_.clear();
  batch_valid_ = false;
  oscillated_ = false;
}

void SwitchSim::reset() {
  std::fill(retained_.begin(), retained_.end(), Sig::kZ);
  std::fill(value_.begin(), value_.end(), Sig::kZ);
  std::fill(strength_.begin(), strength_.end(), 0);
  oscillated_ = false;
}

SwitchSim::Conduction SwitchSim::conduction_for(Sig gate, bool is_pmos) {
  // Total over the Sig domain by construction: Sig values are 0..3 and
  // index the table directly — no unreachable error branch.
  static constexpr Conduction kTable[2][4] = {
      // NMOS: gate 0 -> off, 1 -> on, X -> unknown, Z (floating) -> off
      {Conduction::kOff, Conduction::kOn, Conduction::kUnknown, Conduction::kOff},
      // PMOS: gate 0 -> on, 1 -> off, X -> unknown, Z (floating) -> off
      {Conduction::kOn, Conduction::kOff, Conduction::kUnknown, Conduction::kOff},
  };
  return kTable[is_pmos ? 1 : 0][static_cast<std::size_t>(gate) & 3u];
}

void SwitchSim::eval_conduction(TransistorId t) {
  const auto ti = static_cast<std::size_t>(t);
  cond_[ti] = conduction_for(value_[static_cast<std::size_t>(device_gate_[ti])],
                             device_is_pmos_[ti] != 0);
}

void SwitchSim::eval_all_conduction() {
  for (std::size_t t = 0; t < cond_.size(); ++t) {
    eval_conduction(static_cast<TransistorId>(t));
  }
}

namespace {

/// Join of two values meeting at the same strength.
Sig join(Sig a, Sig b) {
  if (a == b) return a;
  if (a == Sig::kZ) return b;
  if (b == Sig::kZ) return a;
  return Sig::kX;
}

}  // namespace

void SwitchSim::propagate() {
  const std::size_t nets = value_.size();

  // Initialize every net from its sources: driven nets at drive
  // strength, oscillation-pinned nets at drive strength (X), floating
  // nets at their retained charge.
  for (std::size_t n = 0; n < nets; ++n) {
    if (driven_[n]) {
      strength_[n] = config_.drive_strength;
    } else if (pinned_x_[n]) {
      value_[n] = Sig::kX;
      strength_[n] = config_.drive_strength;
    } else if (retained_[n] != Sig::kZ) {
      value_[n] = retained_[n];
      strength_[n] = config_.charge_strength;
    } else {
      value_[n] = Sig::kZ;
      strength_[n] = 0;
    }
  }

  // Worklist relaxation over a monotone lattice: a net's strength only
  // rises, and at its top strength the value only degrades towards X.
  // Each net re-enters the worklist a bounded number of times, so the
  // fixpoint is reached unconditionally — pass-transistor cycles cannot
  // oscillate here.
  worklist_.clear();
  for (std::size_t n = 0; n < nets; ++n) {
    queued_[n] = 1;
    worklist_.push_back(static_cast<std::uint32_t>(n));
  }

  const auto offer = [&](std::size_t to, Sig v, int s) -> bool {
    if (driven_[to] || pinned_x_[to]) return false;  // fixed nets
    if (v == Sig::kZ || s <= 0) return false;        // nothing to offer
    if (s > strength_[to]) {
      strength_[to] = s;
      value_[to] = v;
      return true;
    }
    if (s == strength_[to]) {
      const Sig joined = join(value_[to], v);
      if (joined != value_[to]) {
        value_[to] = joined;
        return true;
      }
    }
    return false;
  };

  while (!worklist_.empty()) {
    const std::size_t n = worklist_.back();
    worklist_.pop_back();
    queued_[n] = 0;
    if (value_[n] == Sig::kZ) continue;
    const std::uint32_t arc_end = adj_offset_[n + 1];
    for (std::uint32_t a = adj_offset_[n]; a < arc_end; ++a) {
      const ChannelArc& arc = adj_[a];
      const Conduction c = cond_[static_cast<std::size_t>(arc.device)];
      if (c == Conduction::kOff) continue;
      const auto other = static_cast<std::size_t>(arc.other);
      const Sig v = c == Conduction::kUnknown ? Sig::kX : value_[n];
      const int s = std::min(strength_[n], arc.strength);
      if (offer(other, v, s) && !queued_[other]) {
        queued_[other] = 1;
        worklist_.push_back(static_cast<std::uint32_t>(other));
      }
    }
  }
}

void SwitchSim::full_propagate() {
  eval_all_conduction();
  propagate();
}

bool SwitchSim::solve(std::size_t cap) {
  const std::size_t nets = value_.size();
  for (std::size_t iter = 0; iter < cap; ++iter) {
    if (iter == 0) {
      // The pre-solve values were set externally (apply / pinning), so
      // every conduction state is potentially stale.
      eval_all_conduction();
    } else {
      // Incremental: previous_ holds the values conduction was last
      // computed from (the state before the last propagate), so exactly
      // the gates on since-changed nets need re-evaluation. This yields
      // bit-identical conduction states to a full re-evaluation.
      bool cond_changed = false;
      for (std::size_t n = 0; n < nets; ++n) {
        if (value_[n] == previous_[n]) continue;
        const std::uint32_t end = gate_offset_[n + 1];
        for (std::uint32_t g = gate_offset_[n]; g < end; ++g) {
          const auto ti = static_cast<std::size_t>(gate_list_[g]);
          const Conduction c = conduction_for(
              value_[static_cast<std::size_t>(device_gate_[ti])], device_is_pmos_[ti] != 0);
          if (c != cond_[ti]) {
            cond_[ti] = c;
            cond_changed = true;
          }
        }
      }
      // With every conduction state unchanged, the next propagation is a
      // deterministic replay of the previous one over identical inputs
      // (conduction, drives, pins, retained charge): value_ already holds
      // its result, so the convergence test below would succeed verbatim.
      // Returning here skips that confirming propagation — the floor per
      // apply() drops from two full propagations to one.
      if (!cond_changed) return true;
    }
    previous_ = value_;
    propagate();
    if (value_ == previous_ && iter > 0) return true;
    // iter 0 always runs a second time: the first propagation computed
    // conduction from the pre-solve values.
  }
  return false;
}

Sig SwitchSim::apply(InputPattern pattern) {
  const Cell& cell = *cell_;
  // The previous steady state becomes the retained charge.
  retained_ = value_;
  std::fill(driven_.begin(), driven_.end(), std::uint8_t{0});
  std::fill(pinned_x_.begin(), pinned_x_.end(), std::uint8_t{0});
  oscillated_ = false;

  const auto drive = [&](NetId net, Sig v) {
    value_[static_cast<std::size_t>(net)] = v;
    driven_[static_cast<std::size_t>(net)] = 1;
  };
  drive(cell.vdd(), Sig::kOne);
  drive(cell.vss(), Sig::kZero);
  const auto& inputs = cell.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    drive(inputs[i], sig_from_bool((pattern >> i) & 1u));
  }

  // Conduction changes at most once per transistor per settled stage in
  // feedforward cells; the cap only matters for genuine feedback loops.
  const std::size_t cap = 2 * cell.num_transistors() + 8;
  if (!solve(cap)) {
    // Conduction-level oscillation (e.g. a gate-drain short forming an
    // inverting loop): pin the nets still moving to X and re-solve.
    oscillated_ = true;
    previous_ = value_;
    full_propagate();
    for (std::size_t n = 0; n < cell.num_nets(); ++n) {
      if (value_[n] != previous_[n]) pinned_x_[n] = 1;
    }
    if (!solve(cap)) {
      // Multi-phase oscillation: pessimize every floating net.
      for (std::size_t n = 0; n < cell.num_nets(); ++n) {
        if (!driven_[n]) pinned_x_[n] = 1;
      }
      full_propagate();
    }
  }
  return net_value(cell.output());
}

Sig SwitchSim::run(const Stimulus& stimulus) {
  CAML_ASSERT(stimulus.num_inputs() == cell_->num_inputs());
  reset();
  Sig out = apply(stimulus.initial_pattern());
  if (!stimulus.is_static()) out = apply(stimulus.final_pattern());
  return out;
}

void SwitchSim::run_batch(const Stimulus* stimuli, std::size_t count, Sig* out) {
  batch_valid_ = false;
  for (std::size_t i = 0; i < count; ++i) {
    const Stimulus& s = stimuli[i];
    CAML_ASSERT(s.num_inputs() == cell_->num_inputs());
    const InputPattern initial = s.initial_pattern();
    if (!batch_valid_ || initial != batch_pattern_) {
      reset();
      batch_out_ = apply(initial);
      // The settled values are the only state the next apply() reads:
      // retained charge is taken from value_ on entry, drives/pins are
      // cleared, and propagate() rewrites every strength. Snapshotting
      // them captures the cold-start initial state exactly.
      batch_state_ = value_;
      batch_pattern_ = initial;
      batch_valid_ = true;
    }
    if (s.is_static()) {
      out[i] = batch_out_;
      continue;
    }
    value_ = batch_state_;
    out[i] = apply(s.final_pattern());
  }
}

Sig SwitchSim::net_value(NetId net) const { return value_.at(static_cast<std::size_t>(net)); }

}  // namespace caml
