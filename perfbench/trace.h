// Span log for the traced run: one span per call the benchmark makes into a
// library layer, kept in memory and written out when the run ends.
//
// Spans are recorded from the benchmark's side of each call, so a span's
// self time (its duration minus what its child spans cover) is the time the
// layer spent inside the call plus the benchmark's bookkeeping around it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

class span_log {
 public:
  struct span {
    std::string name;
    double start_s;
    double end_s;
    int parent;     // index into spans(), -1 for a root
    int iteration;  // repetition the span belongs to
    double duration() const { return end_s - start_s; }
  };

  // Opens a span on construction and closes it on destruction; spans opened
  // while it is alive become its children.
  class scope {
   public:
    scope(span_log& log, const char* name, int iteration) : log_(log) {
      index_ = static_cast<int>(log_.spans_.size());
      int parent = log_.open_.empty() ? -1 : log_.open_.back();
      log_.spans_.push_back({name, log_.now(), 0.0, parent, iteration});
      log_.open_.push_back(index_);
    }
    ~scope() { close(); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    // Ends the span early and returns its duration in seconds.
    double close() {
      if (!closed_) {
        log_.spans_[index_].end_s = log_.now();
        log_.open_.pop_back();
        closed_ = true;
      }
      return log_.spans_[index_].duration();
    }

   private:
    span_log& log_;
    int index_ = 0;
    bool closed_ = false;
  };

  span_log() : origin_(clock::now()) { spans_.reserve(1 << 12); }

  const std::vector<span>& spans() const { return spans_; }

  double self_time(size_t i) const {
    double covered = 0.0;
    for (const span& s : spans_)
      if (s.parent == static_cast<int>(i)) covered += s.duration();
    return spans_[i].duration() - covered;
  }

  // Median self time per span name, over the iterations that recorded it.
  std::map<std::string, double> median_self_times() const {
    std::map<std::string, std::vector<double>> by_name;
    for (size_t i = 0; i < spans_.size(); ++i)
      by_name[spans_[i].name].push_back(self_time(i));
    std::map<std::string, double> out;
    for (auto& [name, v] : by_name) out[name] = median(v);
    return out;
  }

  // Sum of self times over the tree rooted at `root` (equals the root's
  // duration: the check that every span's time is accounted for).
  double tree_self_sum(size_t root) const {
    double sum = self_time(root);
    for (size_t i = root + 1; i < spans_.size(); ++i)
      if (spans_[i].parent == static_cast<int>(root)) sum += tree_self_sum(i);
    return sum;
  }

  // Writes the spans plus `summary` (a JSON object body, without braces).
  bool write_json(const std::string& path, const std::string& summary) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s,\n\"spans\": [\n", summary.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"self_s\": %.9f, \"parent\": %d, "
                   "\"iteration\": %d}%s\n",
                   i, s.name.c_str(), s.start_s, s.end_s, self_time(i),
                   s.parent, s.iteration, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  clock::time_point origin_;
  std::vector<span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
