#include "replay.hpp"

#include <sys/resource.h>

#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/detector.hpp"
#include "core/jschain.hpp"
#include "core/pipeline.hpp"
#include "jsapi/acrobat_api.hpp"
#include "jsstatic/analyzer.hpp"
#include "pdf/crypto.hpp"
#include "pdf/parser.hpp"
#include "reader/reader_sim.hpp"
#include "support/checksum.hpp"
#include "sys/kernel.hpp"

namespace e2ebench {

namespace {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::size_t doc = 0;
};

/// In-memory span log, written out when the replay ends. Disabled, every
/// call is a no-op that reads no clock.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int open(const char* name, int parent, std::size_t doc) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, parent, doc});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  /// The front-end's phases as children of its span. Their durations are
  /// the ones FrontEnd::process measured (PhaseTimings); the phases run
  /// back to back, so they are laid out from the parent's start.
  void add_phases(int parent, const ps::core::PhaseTimings& t) {
    if (parent < 0) return;
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    std::int64_t at = p.start_ns;
    const std::size_t doc = p.doc;
    const std::pair<const char*, double> phases[] = {
        {"pdf", t.parse_decompress_s},
        {"features", t.feature_extraction_s},
        {"instrument", t.instrumentation_s}};
    for (const auto& [name, seconds] : phases) {
      const auto ns = static_cast<std::int64_t>(seconds * 1e9);
      spans_.push_back({name, at, at + ns, parent, doc});
      at += ns;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"doc\":" << s.doc << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

struct ThreadUsage {
  double user_s = 0;
  double sys_s = 0;
  long minflt = 0;
};

ThreadUsage thread_usage() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return {static_cast<double>(ru.ru_utime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec) * 1e-6,
          static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6,
          ru.ru_minflt};
}

/// The document's original scripts, as the service's jsstatic pass sees
/// them: JS-chain sites of a fresh parse (decrypted, decompressed).
std::vector<std::string> script_sources(ps::support::BytesView data) {
  ps::pdf::Document doc = ps::pdf::parse_document(data);
  if (ps::pdf::is_encrypted(doc)) ps::pdf::decrypt_document(doc, "");
  doc.decompress_all();
  std::vector<std::string> sources;
  for (const ps::core::JsSite& site : ps::core::analyze_js_chains(doc).sites) {
    sources.push_back(site.source);
  }
  return sources;
}

ps::jsstatic::Report timed_jsstatic(SpanLog& spans, int parent,
                                    std::size_t doc,
                                    const std::vector<std::string>& sources,
                                    const ps::jsstatic::Caps& caps) {
  const int id = spans.open("jsstatic", parent, doc);
  ps::jsstatic::Report report = ps::jsstatic::analyze_scripts(sources, caps);
  spans.close(id);
  return report;
}

struct Detonation {
  bool ran = false;
  bool malicious = false;
  ps::reader::OpenResult open;
  std::uint64_t api_calls = 0;
  ThreadUsage usage;
  double reader_s = 0;
};

/// What core::run_document does to detonate, one call per span: a fresh
/// kernel, the runtime detector (set-up, verdict) and the simulated reader.
Detonation detonate(SpanLog& spans, int parent, std::size_t doc,
                    const ps::core::FrontEndResult& r, const std::string& name,
                    const std::string& detector_id, bool forced) {
  Detonation out;
  out.ran = true;
  const int det = spans.open("detonate", parent, doc);
  {
    ps::sys::Kernel kernel(/*trace_ring_capacity=*/0);
    int id = spans.open("detector", det, doc);
    ps::core::RuntimeDetector detector(kernel, ps::core::DetectorConfig{},
                                       detector_id);
    detector.register_document(r.record.key, name, r.features);
    for (const auto& emb : r.embedded) {
      detector.register_document(emb.record.key, emb.name, emb.features);
    }
    spans.close(id);

    ps::reader::ReaderConfig config;
    config.forced_execution = forced;
    ps::reader::ReaderSim reader(kernel, config);
    detector.attach(reader);
    const ThreadUsage before = spans.enabled() ? thread_usage() : ThreadUsage{};
    const Clock::time_point t0 = Clock::now();
    id = spans.open("reader", det, doc);
    out.open = reader.open_document(r.output, name);
    spans.close(id);
    out.reader_s = seconds_between(t0, Clock::now());
    if (spans.enabled()) {
      const ThreadUsage after = thread_usage();
      out.usage = {after.user_s - before.user_s, after.sys_s - before.sys_s,
                   after.minflt - before.minflt};
    }

    id = spans.open("detector", det, doc);
    out.malicious = detector.verdict(r.record.key).malicious;
    spans.close(id);
    out.api_calls = kernel.trace().counters().by_kind[static_cast<std::size_t>(
        ps::trace::Kind::kApiCall)];
  }  // reader and kernel teardown stay inside the detonate span
  spans.close(det);
  return out;
}

struct Totals {
  double bytes_in = 0;
  double bytes_out = 0;
  std::size_t repaired = 0;
  std::size_t js_docs = 0;
  std::size_t proven_clean = 0;
  double node_visits = 0;
  std::size_t detonated = 0;
  double scripts = 0;
  double js_reported = 0;
  double paths_explored = 0;
  double paths_dropped = 0;
  double api_calls = 0;
  ThreadUsage usage;
  std::vector<double> reader_ms;
};

// Layers reported as self time; every other span ("doc", "frontend",
// "detonate") is glue whose self time is the reported remainder.
constexpr const char* kLayers[] = {"pdf",      "features", "jsstatic",
                                   "instrument", "reader", "detector"};

Metrics layer_metrics(const std::vector<Span>& spans, const Totals& t,
                      std::size_t count) {
  std::vector<std::int64_t> child(spans.size(), 0);
  std::vector<std::size_t> root(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      root[i] = i;
    } else {
      const auto p = static_cast<std::size_t>(s.parent);
      child[p] += s.end_ns - s.start_ns;
      root[i] = root[p];
    }
  }
  std::map<std::string, double> self_s;
  double remainder_s = 0;
  double doc_s = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self = duration - static_cast<double>(child[i]) * 1e-9;
    const std::string name = s.name;
    bool layer = false;
    for (const char* l : kLayers) layer = layer || name == l;
    if (layer) {
      self_s[name] += self;
    } else if (std::string(spans[root[i]].name) == "doc") {
      remainder_s += self;
    }
    if (name == "doc") doc_s += duration;
  }

  const double n = static_cast<double>(count);
  const double det = static_cast<double>(t.detonated);
  const double js = static_cast<double>(t.js_docs);
  auto per = [](double value, double base) {
    return base > 0 ? value / base : 0.0;
  };
  constexpr double kMB = 1024.0 * 1024.0;
  Metrics m;
  m["pdf.self_ms"] = {per(self_s["pdf"], n) * 1e3, "ms"};
  m["pdf.mb_per_s"] = {per(t.bytes_in / kMB, self_s["pdf"]), "MB/s"};
  m["pdf.repaired_share"] = {per(static_cast<double>(t.repaired), n), "share"};
  m["features.self_ms"] = {per(self_s["features"], n) * 1e3, "ms"};
  m["jsstatic.self_ms"] = {per(self_s["jsstatic"], n) * 1e3, "ms"};
  m["jsstatic.node_visits"] = {per(t.node_visits, js), "count"};
  m["jsstatic.proven_clean_share"] = {
      per(static_cast<double>(t.proven_clean), js), "share"};
  m["instrument.self_ms"] = {per(self_s["instrument"], n) * 1e3, "ms"};
  m["instrument.output_ratio"] = {per(t.bytes_out, t.bytes_in), "ratio"};
  m["reader.self_ms"] = {per(self_s["reader"], n) * 1e3, "ms"};
  m["reader.self_p99_ms"] = {percentile(t.reader_ms, 99), "ms"};
  m["reader.sys_share"] = {
      per(t.usage.sys_s, t.usage.user_s + t.usage.sys_s), "share"};
  m["reader.minflt_per_doc"] = {per(static_cast<double>(t.usage.minflt), det),
                                "count"};
  m["reader.js_reported_mb"] = {per(t.js_reported / kMB, det), "MB"};
  m["reader.scripts_per_doc"] = {per(t.scripts, det), "count"};
  m["reader.paths_explored"] = {per(t.paths_explored, det), "count"};
  m["reader.paths_dropped"] = {per(t.paths_dropped, det), "count"};
  m["detector.self_us"] = {per(self_s["detector"], n) * 1e6, "us"};
  m["detector.hook_events_per_doc"] = {per(t.api_calls, det), "count"};
  m["replay.doc_ms"] = {per(doc_s, n) * 1e3, "ms"};
  m["replay.remainder_ms"] = {per(remainder_s, n) * 1e3, "ms"};
  return m;
}

class NoopHooks final : public ps::jsapi::HostHooks {
 public:
  void exploit_attempt(const std::string&) override {}
  void script_added(const std::string&, const std::string&) override {}
  void script_delayed(const std::string&, double) override {}
  bool soap_request(const std::string&, const ps::js::Value&,
                    ps::js::Value*) override {
    return false;
  }
  void open_embedded(const std::string&, const ps::support::Bytes&) override {}
};

}  // namespace

ReplayResult replay(const Workload& w, const Inputs& in, std::size_t count,
                    const std::string& detector_id,
                    const std::vector<std::uint32_t>& reference_crc,
                    bool spans_on, const std::string& spans_path) {
  ReplayResult out;
  SpanLog spans(spans_on);
  // jsstatic gets its own span, so the front-end runs without it; the
  // instrumented bytes do not depend on that switch.
  ps::core::FrontEndOptions fe_options = w.options.frontend;
  fe_options.analyze_js = false;
  const ps::core::FrontEnd frontend(detector_id, fe_options);
  const auto arena = std::make_shared<ps::support::Arena>();
  const bool forced = w.options.frontend.forced_execution;
  const bool prefilter = w.options.static_prefilter;
  const ps::jsstatic::Caps& caps = w.options.frontend.jsstatic_caps;
  Totals t;

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t di = i % in.docs.size();
    const Input& d = in.docs[di];
    const ps::support::BytesView view(d.data.data(), d.data.size());
    ++out.attempted;
    bool passed = false;
    try {
      const std::vector<std::string> sources = script_sources(view);
      ps::jsstatic::Report report;
      Detonation det;

      const int root = spans.open("doc", -1, i);
      const int fe = spans.open("frontend", root, i);
      const ps::core::FrontEndResult r = frontend.process(view, nullptr, arena);
      spans.close(fe);
      spans.add_phases(fe, r.timings);
      if (prefilter) report = timed_jsstatic(spans, root, i, sources, caps);
      const bool skipped =
          prefilter && report.proven_clean() && r.embedded.empty();
      if (r.ok && w.options.detonate && !skipped) {
        det = detonate(spans, root, i, r, d.name, detector_id, forced);
      }
      spans.close(root);

      // Off-path probes: layers this workload does not run, measured on
      // the same documents outside the per-document timeline.
      if (!prefilter || !w.options.detonate) {
        const int off = spans.open("offpath", -1, i);
        if (!prefilter) report = timed_jsstatic(spans, off, i, sources, caps);
        if (!w.options.detonate && r.ok) {
          det = detonate(spans, off, i, r, d.name, detector_id, forced);
        }
        spans.close(off);
      }

      if (r.ok) {
        bool verdict = false;
        if (!w.options.detonate) {
          verdict = r.features.binary_sum() > 0;
        } else if (!skipped) {
          verdict = det.malicious;
        }
        const bool crc_ok = reference_crc.empty() ||
                            ps::support::crc32(r.output) == reference_crc[di];
        passed = crc_ok && verdict == d.expect_malicious;
      }

      t.bytes_in += static_cast<double>(d.data.size());
      t.bytes_out += static_cast<double>(r.output.size());
      if (r.parse_health.repaired) ++t.repaired;
      if (!sources.empty()) {
        ++t.js_docs;
        t.node_visits += static_cast<double>(report.node_visits);
        if (report.proven_clean()) ++t.proven_clean;
      }
      if (det.ran) {
        ++t.detonated;
        t.scripts += static_cast<double>(det.open.scripts_executed);
        t.js_reported += static_cast<double>(det.open.js_reported_bytes);
        t.paths_explored += static_cast<double>(det.open.paths_explored);
        t.paths_dropped += static_cast<double>(det.open.paths_dropped);
        t.api_calls += static_cast<double>(det.api_calls);
        t.usage.user_s += det.usage.user_s;
        t.usage.sys_s += det.usage.sys_s;
        t.usage.minflt += det.usage.minflt;
        t.reader_ms.push_back(det.reader_s * 1e3);
      }
    } catch (const std::exception&) {
      passed = false;
    }
    if (!passed) ++out.failed;
    // The result (the arena's only other owner) died with the scope above.
    if (arena.use_count() == 1) arena->reset();
  }
  out.wall_s = seconds_between(start, Clock::now());

  if (spans_on) {
    out.metrics = layer_metrics(spans.spans(), t, count);
    if (!spans_path.empty()) spans.write(spans_path);
  }
  return out;
}

double world_build_us(int reps) {
  ps::sys::Kernel kernel(/*trace_ring_capacity=*/0);
  const int pid = kernel.create_process("AcroRd32.exe").pid();
  NoopHooks hooks;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto interp = std::make_unique<ps::js::Interpreter>();
    ps::jsapi::AcrobatApi api(*interp, kernel, pid, hooks,
                              ps::jsapi::DocFacts{});
    samples.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  return median(samples);
}

}  // namespace e2ebench
