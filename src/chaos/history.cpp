#include "chaos/history.hpp"

#include <utility>

namespace vdep::chaos {

std::string client_log_key(int client_index) {
  return "log:c" + std::to_string(client_index);
}

std::string append_token(int client_index, std::uint64_t seq) {
  return "[c" + std::to_string(client_index) + "#" + std::to_string(seq) + "]";
}

std::vector<std::string> parse_tokens(const std::string& log_value) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = log_value.find('[', pos)) != std::string::npos) {
    const std::size_t end = log_value.find(']', pos);
    if (end == std::string::npos) break;
    out.push_back(log_value.substr(pos, end - pos + 1));
    pos = end + 1;
  }
  return out;
}

WorkloadClient::WorkloadClient(sim::Process& process, Config config, Rng rng, Send send)
    : process_(process), config_(std::move(config)), rng_(rng), send_(std::move(send)) {}

void WorkloadClient::start() {
  process_.kernel().post_at(config_.start_at + config_.stagger * config_.index,
                            process_.guarded([this] { issue_next(); }));
}

void WorkloadClient::issue_next() {
  if (next_seq_ >= static_cast<std::uint64_t>(config_.ops)) return;
  const std::uint64_t seq = next_seq_++;

  OpRecord rec;
  rec.client = config_.index;
  rec.seq = seq;
  rec.issued_at = process_.now();

  const double draw = rng_.uniform01();
  std::string value;
  if (draw < config_.append_ratio) {
    rec.op = "append";
    rec.key = client_log_key(config_.index);
    rec.token = append_token(config_.index, seq);
    value = rec.token;
  } else {
    rec.op = draw < config_.append_ratio + (1.0 - config_.append_ratio) / 2.0 ? "put" : "get";
    rec.key = config_.key_prefix + std::to_string(rng_.below(config_.key_space));
    if (rec.op == "put") value = "v" + std::to_string(seq);
  }

  const std::size_t slot = history_.size();
  history_.push_back(rec);

  send_(rec, value, [this, slot](bool ok) {
    OpRecord& done = history_[slot];
    done.completed_at = process_.now();
    done.ok = ok;
    last_completed_ = process_.now();
    ++completed_;
    if (this->done()) {
      if (on_done) on_done();
    } else {
      process_.post(config_.gap, [this] { issue_next(); });
    }
  });
}

}  // namespace vdep::chaos
