// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around its calls into each popdb module; the module
// name is the span's layer. Nothing is written until the run ends.
#ifndef POPBENCH_SPANS_H_
#define POPBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace popbench {

/// Microseconds on the benchmark's steady clock.
double NowUs();

struct Span {
  int64_t id = 0;
  int64_t parent = 0;   ///< 0 = root.
  int64_t request = 0;  ///< Spans of one request share this id.
  const char* name = "";   ///< The public call, e.g. "Optimizer::Optimize"
                           ///< (a string literal).
  const char* layer = "";  ///< popdb module: net, sql, runtime, opt, core,
                           ///< exec, txn; "request"/"probe"/"wire" roots.
  double start_us = 0.0;
  double end_us = 0.0;
  double dur_us() const { return end_us - start_us; }
};

/// One client thread's span buffer (not thread safe; one per thread).
class SpanBuffer {
 public:
  explicit SpanBuffer(int64_t id_base) : next_id_(id_base) {}

  /// Records a finished span; returns its id.
  int64_t Add(int64_t parent, int64_t request, const char* name,
              const char* layer, double start_us, double end_us);

  std::vector<Span>& spans() { return spans_; }

 private:
  int64_t next_id_;
  std::vector<Span> spans_;
};

/// Self time per layer: each span's duration minus the part its children
/// cover, summed by layer. Only spans under roots of layer `root_layer`
/// count; the roots' own self time is returned under "unattributed".
std::map<std::string, double> LayerSelfUs(const std::vector<Span>& spans,
                                          const std::string& root_layer);

/// Writes the first `max_spans` of `spans` as a Chrome trace_event JSON
/// array (one row per request).
bool WriteChromeTrace(const std::vector<Span>& spans, size_t max_spans,
                      const std::string& path);

}  // namespace popbench

#endif  // POPBENCH_SPANS_H_
