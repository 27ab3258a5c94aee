#include "common.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "obs/registry.hpp"

namespace qesbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// JSON has no NaN/Inf; a non-finite value is reported as null so the
// consumer rejects it instead of parsing garbage.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and so
  // reports the launching process's peak when that one was larger.
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double lower_median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

std::string join_values(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

void timed_setups(int count, const std::function<void()>& setup,
                  const std::function<void()>& teardown,
                  std::vector<double>& walls) {
  for (int i = 0; i < count; ++i) {
    const double t0 = now_s();
    setup();
    walls.push_back(now_s() - t0);
    if (i + 1 < count) teardown();
  }
}

std::vector<ThreadCpu> thread_cpu_table() {
  std::vector<ThreadCpu> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(f, line)) continue;
    // Fields after the parenthesised command name: state is field 3,
    // utime/stime are fields 14/15.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int i = 3; i <= 15 && (rest >> field); ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    out.push_back({std::atoi(e->d_name), (utime + stime) / tick});
  }
  closedir(dir);
  std::sort(out.begin(), out.end(),
            [](const ThreadCpu& a, const ThreadCpu& b) { return a.tid < b.tid; });
  return out;
}

namespace {
constexpr const char* kPhases[4] = {"crr", "yds", "wf", "online_qe"};
}  // namespace

void PhaseTotals::add(const qes::obs::Registry& reg, const std::string& plane) {
  for (std::size_t i = 0; i < 4; ++i) {
    const qes::obs::Histogram* h = reg.find_histogram(
        "qes_replan_phase_ms", {{"plane", plane}, {"phase", kPhases[i]}});
    if (h == nullptr) continue;
    count[i] += h->count();
    sum_ms[i] += h->sum();
  }
}

void PhaseTotals::report(Report& rep) const {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string name = std::string("policy.") + kPhases[i];
    rep.metric(name + "_ms_mean",
               count[i] > 0 ? sum_ms[i] / static_cast<double>(count[i]) : 0.0,
               "ms", count[i]);
    rep.metric(name + "_count", static_cast<double>(count[i]), "count", 1);
  }
}

bool rel_close(double a, double b, double rel) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) <= rel * scale;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::check(const std::string& name, bool pass,
                   const std::string& detail) {
  checks_.push_back({name, pass, detail});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

bool Report::correct() const {
  return !checks_.empty() &&
         std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.pass; });
}

void Report::print() const {
  for (const std::string& n : notes_) std::printf("note  %s\n", n.c_str());
  for (const Check& c : checks_) {
    std::printf("check %-28s %s  %s\n", c.name.c_str(),
                c.pass ? "PASS" : "FAIL", c.detail.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("metric %-30s %16.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    json += (i == 0 ? "" : ", ") + json_string(m.name) +
            ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}, \"checks\": {";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    json += (i == 0 ? "" : ", ") + json_string(checks_[i].name) + ": " +
            (checks_[i].pass ? "true" : "false");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace qesbench
