// Serving-cost benchmark: end-to-end latency, throughput and accuracy of a
// published core::DeploymentSnapshot under three traffic mixes, and a traced
// per-layer ledger. run.py builds this program and forwards its arguments:
//
//   servbench --workload <camera_int8|batch_fp32|fleet_mixed_open>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Every run trains, distils, quantizes and publishes a deployment (seeded,
// single-threaded, so the models and the F1 scores repeat exactly), serves
// the workload for --seconds, then runs an accuracy pass through the same
// serving path. The correctness gate compares every delivered detection list
// with serial DeploymentSnapshot::infer_batch (and every fused group with
// serial detect::fuse_views); a mismatch prints "correct": false and exits 1.
// A deployment whose F1 or detections per image is 0 on either
// configuration is refused (exit 2, no result): it would measure idle
// detect/kg/fusion layers.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// ledger, timed from this file around calls into each layer's public
// functions (no spans inside src/). The last stdout line is the result JSON.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/itask.h"
#include "detect/fusion.h"
#include "detect/metrics.h"
#include "runtime/fleet.h"
#include "stats.h"
#include "tensor/profile.h"

namespace itask::servbench {
namespace {

using core::ConfigKind;
using Dets = std::vector<detect::Detection>;

constexpr ConfigKind kFp32 = ConfigKind::kTaskSpecific;
constexpr ConfigKind kInt8 = ConfigKind::kQuantizedMultiTask;

// Setup: repeated so setup_s is a median. Library tasks 2, 1, 3, 4 are
// defined in that order; the first two get task-specific students
// (batch_fp32 serves both). Task 2 is the primary task — camera_int8's task,
// the fleet's hot task, the accuracy pass's and the ledger's — because it
// keeps more detections per image than task 1, so decode, KG match, NMS and
// fusion have work to do.
constexpr int kSetupRepeats = 3;
constexpr int64_t kLibraryTasks[] = {2, 1, 3, 4};
constexpr int64_t kStudentTasks = 2;
constexpr size_t kPrimaryTask = 0;
// Inputs: a seeded pool of scenes (plus pre-jittered K-view groups) that
// requests draw from; all tensors exist before timing starts.
constexpr int64_t kPoolScenes = 256;
constexpr int64_t kViews = 3;
constexpr float kViewSigma = 0.05f;
// Accuracy pass: a fixed evaluation set, independent of --seed, so F1 is a
// pure function of the arithmetic.
constexpr int64_t kEvalScenes = 128;
constexpr uint64_t kEvalSeed = 8675309;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Runs a closed loop on one CPU at a time. The loop models one edge
/// device's core, so its client and worker hand off on one CPU and never
/// wait for another vCPU to wake up. Every kSliceS of a phase, every thread
/// of the process moves to the next CPU the process may use, so a busy
/// neighbour of one CPU on a shared host slows that CPU's slices, not the
/// whole run (README.md).
class CpuRotation {
 public:
  static constexpr double kSliceS = 0.25;

  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }

  /// Pins every thread to the CPU of the slice `phase_s` (seconds into the
  /// phase) falls in.
  void at(double phase_s) {
    const auto slice = static_cast<int64_t>(phase_s / kSliceS);
    if (slice == slice_ || cpus_.empty()) return;
    slice_ = slice;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[static_cast<size_t>(slice) % cpus_.size()], &set);
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      const auto tid = static_cast<pid_t>(std::stol(task.path().filename()));
      (void)sched_setaffinity(tid, sizeof(set), &set);  // a thread may have ended
    }
  }

 private:
  std::vector<int> cpus_;
  int64_t slice_ = -1;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Training budget: enough for both configurations to deliver detections
/// (F1 > 0 for task-specific, quantized and fused) in ~4 s of
/// single-threaded training; the full experiment budgets take ~22 s and the
/// ITASK_BENCH_FAST budgets leave the quantized configuration with no
/// detections at all.
core::FrameworkOptions training_budget() {
  core::FrameworkOptions o;
  o.seed = 42;
  o.corpus_size = 256;
  o.teacher_training.epochs = 12;
  o.task_corpus_size = 96;
  o.distillation.epochs = 16;
  o.multitask_corpus_size = 192;
  o.multitask_distillation.epochs = 24;
  return o;
}

// ---------------------------------------------------------------- setup --

struct Deployment {
  std::unique_ptr<core::Framework> fw;
  std::vector<core::TaskHandle> tasks;
  std::shared_ptr<const core::DeploymentSnapshot> snapshot;
};

/// Median wall time of each setup phase over kSetupRepeats repetitions.
struct SetupStats {
  double setup_s = 0.0;  // train + distil + quantize + publish + start-up
  double teacher_s = 0.0;
  double define_task_ms = 0.0;   // per task
  double task_specific_s = 0.0;  // per student
  double quantized_s = 0.0;
  double publish_ms = 0.0;
  double server_start_ms = 0.0;
};

/// Builds the deployment and the workload's serving runtime (`start`
/// returns null for a workload without one) kSetupRepeats times, each phase
/// timed as its own call; keeps the last deployment and runtime.
template <typename Runtime, typename StartFn>
std::pair<Deployment, std::unique_ptr<Runtime>> set_up(StartFn start,
                                                       SetupStats& stats) {
  std::vector<double> total, teacher, define, student, quantized, publish,
      server;
  Deployment dep;
  std::unique_ptr<Runtime> runtime;
  for (int r = 0; r < kSetupRepeats; ++r) {
    runtime.reset();
    dep = Deployment{};
    const double t0 = now_us();
    dep.fw = std::make_unique<core::Framework>(training_budget());
    dep.fw->pretrain_teacher();
    const double t1 = now_us();
    for (const int64_t library_task : kLibraryTasks) {
      dep.tasks.push_back(dep.fw->define_task(data::task_by_id(library_task)));
    }
    const double t2 = now_us();
    for (int64_t t = 0; t < kStudentTasks; ++t) {
      dep.fw->prepare_task_specific(dep.tasks[static_cast<size_t>(t)]);
    }
    const double t3 = now_us();
    dep.fw->prepare_quantized();
    const double t4 = now_us();
    dep.snapshot = dep.fw->publish();
    const double t5 = now_us();
    runtime = start(dep.snapshot);
    const double t6 = now_us();
    total.push_back((t6 - t0) * 1e-6);
    teacher.push_back((t1 - t0) * 1e-6);
    define.push_back((t2 - t1) * 1e-3 / static_cast<double>(dep.tasks.size()));
    student.push_back((t3 - t2) * 1e-6 / static_cast<double>(kStudentTasks));
    quantized.push_back((t4 - t3) * 1e-6);
    publish.push_back((t5 - t4) * 1e-3);
    server.push_back((t6 - t5) * 1e-3);
  }
  stats = SetupStats{median(total),   median(teacher),   median(define),
                     median(student), median(quantized), median(publish),
                     median(server)};
  return {std::move(dep), std::move(runtime)};
}

// --------------------------------------------------------------- inputs --

Tensor as_batch(const Tensor& image) {
  Shape s = image.shape();
  s.insert(s.begin(), 1);
  return image.reshape(s);
}

Tensor stack(const std::vector<const Tensor*>& images) {
  Shape s = images.front()->shape();
  s.insert(s.begin(), static_cast<int64_t>(images.size()));
  Tensor out(s);
  for (size_t i = 0; i < images.size(); ++i) {
    out.set_index(static_cast<int64_t>(i), *images[i]);
  }
  return out;
}

/// Scenes plus one pre-jittered K-view group per scene.
struct Inputs {
  data::Dataset scenes;
  std::vector<std::vector<Tensor>> views;
};

Inputs make_inputs(const core::FrameworkOptions& options, int64_t count,
                   uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  in.scenes =
      data::Dataset::generate(data::SceneGenerator(options.generator), count,
                              rng);
  for (int64_t i = 0; i < count; ++i) {
    in.views.push_back(detect::jittered_views(
        in.scenes.scene(i).image, kViews, kViewSigma,
        seed * 31ULL + static_cast<uint64_t>(i)));
  }
  return in;
}

detect::FusionOptions fusion_options() {
  detect::FusionOptions f;
  f.min_views = 2;  // keep what two views agree on (F8's operating point)
  return f;
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin());
}

bool same_detections(const Dets& a, const Dets& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const detect::Detection& x = a[i];
    const detect::Detection& y = b[i];
    if (x.cell != y.cell || x.predicted_class != y.predicted_class ||
        x.objectness != y.objectness || x.task_score != y.task_score ||
        x.confidence != y.confidence || x.box.cx != y.box.cx ||
        x.box.cy != y.box.cy || x.box.w != y.box.w || x.box.h != y.box.h ||
        !same_tensor(x.attr_probs, y.attr_probs) ||
        !same_tensor(x.class_probs, y.class_probs)) {
      return false;
    }
  }
  return true;
}

/// Serial reference results for one (task, configuration) over an input
/// set: single-image DeploymentSnapshot::infer_batch per scene, and serial
/// detect::fuse_views over the per-view results of each scene's group.
struct Reference {
  std::vector<Dets> single;
  std::vector<Dets> fused;
};

Reference serial_reference(const core::DeploymentSnapshot& snapshot,
                           const Inputs& in, kg::TaskId task,
                           ConfigKind config, bool groups) {
  Reference ref;
  for (int64_t i = 0; i < in.scenes.size(); ++i) {
    ref.single.push_back(snapshot.infer_batch(
        as_batch(in.scenes.scene(i).image), task, config)[0]);
    if (!groups) continue;
    std::vector<Dets> per_view;
    for (const Tensor& v : in.views[static_cast<size_t>(i)]) {
      per_view.push_back(snapshot.infer_batch(as_batch(v), task, config)[0]);
    }
    ref.fused.push_back(detect::fuse_views(per_view, fusion_options()));
  }
  return ref;
}

// ------------------------------------------------------ accuracy + gate --

/// How a workload delivers detections: singles and K-view groups, in input
/// order, through the workload's own serving path.
struct DeliveryPath {
  std::function<std::vector<Dets>(const std::vector<const Tensor*>&,
                                  kg::TaskId, ConfigKind)>
      singles;
  std::function<std::vector<Dets>(const std::vector<std::vector<Tensor>>&,
                                  kg::TaskId, ConfigKind)>
      groups;
};

struct Accuracy {
  bool identical = true;
  double f1_quantized = 0.0;
  double f1_task_specific = 0.0;
  double f1_fused = 0.0;
  double final_per_img_int8 = 0.0;
  double final_per_img_fp32 = 0.0;
  int64_t attempted = 0;
};

/// The accuracy pass: the fixed evaluation set served through `path` on
/// both configurations (singles) and as task-specific K-view groups, each
/// delivered list gated against the serial reference, F1 against ground
/// truth from what was delivered.
Accuracy accuracy_pass(const Deployment& dep, const DeliveryPath& path) {
  const core::FrameworkOptions& options = dep.fw->options();
  const Inputs eval = make_inputs(options, kEvalScenes, kEvalSeed);
  const core::TaskHandle& task = dep.tasks[kPrimaryTask];
  const auto truth = core::Framework::ground_truth(eval.scenes, task.spec);
  std::vector<const Tensor*> images;
  for (const data::Scene& s : eval.scenes.scenes()) images.push_back(&s.image);

  Accuracy acc;
  const auto gate = [&acc](const std::vector<Dets>& got,
                           const std::vector<Dets>& want) {
    acc.identical = acc.identical && got.size() == want.size();
    for (size_t i = 0; acc.identical && i < got.size(); ++i) {
      acc.identical = same_detections(got[i], want[i]);
    }
  };
  const auto per_img = [](const std::vector<Dets>& d) {
    double n = 0.0;
    for (const Dets& x : d) n += static_cast<double>(x.size());
    return n / static_cast<double>(d.size());
  };
  for (const ConfigKind config : {kInt8, kFp32}) {
    const bool groups = config == kFp32;
    const Reference ref =
        serial_reference(*dep.snapshot, eval, task.id, config, groups);
    const std::vector<Dets> got = path.singles(images, task.id, config);
    gate(got, ref.single);
    const double f1 = detect::evaluate(got, truth, options.eval_iou).f1;
    acc.attempted += static_cast<int64_t>(images.size());
    if (config == kInt8) {
      acc.f1_quantized = f1;
      acc.final_per_img_int8 = per_img(got);
    } else {
      acc.f1_task_specific = f1;
      acc.final_per_img_fp32 = per_img(got);
      const std::vector<Dets> fused = path.groups(eval.views, task.id, config);
      gate(fused, ref.fused);
      acc.f1_fused = detect::evaluate(fused, truth, options.eval_iou).f1;
      acc.attempted += static_cast<int64_t>(eval.views.size());
    }
  }
  return acc;
}

/// Delivery through an InferenceServer or InferenceFleet, one request at a
/// time (the pass measures accuracy, not speed).
template <typename Server>
DeliveryPath served_path(Server& server) {
  DeliveryPath p;
  p.singles = [&server](const std::vector<const Tensor*>& images,
                        kg::TaskId task, ConfigKind config) {
    std::vector<Dets> out;
    for (const Tensor* image : images) {
      auto r = server.try_submit(*image, task, config);
      ITASK_CHECK(r.admitted(), "accuracy pass: request rejected");
      out.push_back(r.future->get().detections);
    }
    return out;
  };
  p.groups = [&server](const std::vector<std::vector<Tensor>>& groups,
                       kg::TaskId task, ConfigKind config) {
    std::vector<Dets> out;
    for (const std::vector<Tensor>& views : groups) {
      auto r = server.try_submit_group(views, task, config);
      ITASK_CHECK(r.admitted(), "accuracy pass: group rejected");
      out.push_back(r.future->get().fused);
    }
    return out;
  };
  return p;
}

/// Delivery through serial batched DeploymentSnapshot::infer_batch (batches
/// of 32) and serial detect::fuse_views: batch_fp32's path.
DeliveryPath batched_path(const core::DeploymentSnapshot& snapshot) {
  DeliveryPath p;
  p.singles = [&snapshot](const std::vector<const Tensor*>& images,
                          kg::TaskId task, ConfigKind config) {
    std::vector<Dets> out;
    for (size_t start = 0; start < images.size(); start += 32) {
      const std::vector<const Tensor*> chunk(
          images.begin() + static_cast<std::ptrdiff_t>(start),
          images.begin() + static_cast<std::ptrdiff_t>(
                               std::min(images.size(), start + 32)));
      for (Dets& d : snapshot.infer_batch(stack(chunk), task, config)) {
        out.push_back(std::move(d));
      }
    }
    return out;
  };
  p.groups = [&snapshot](const std::vector<std::vector<Tensor>>& groups,
                         kg::TaskId task, ConfigKind config) {
    std::vector<Dets> out;
    for (const std::vector<Tensor>& views : groups) {
      std::vector<const Tensor*> ptrs;
      for (const Tensor& v : views) ptrs.push_back(&v);
      out.push_back(detect::fuse_views(
          snapshot.infer_batch(stack(ptrs), task, config), fusion_options()));
    }
    return out;
  };
  return p;
}

// -------------------------------------------------------- runtime trace --

/// Spans recorded by the client around runtime calls, plus the spans the
/// runtime returns in each InferenceResult / GroupInferenceResult.
struct RuntimeTrace {
  std::vector<double> admit_us;    // inside try_submit / try_submit_group
  std::vector<double> queue_us;    // per served request or view
  std::vector<double> gen_lag_us;  // open loop: due -> submit; closed: idle
  std::vector<double> fuse_us;     // per group
  double formation_sum_us = 0.0;
  double infer_sum_us = 0.0;
  int64_t served = 0;  // requests + views behind formation/infer sums
  double covered_us = 0.0;  // Σ timed layer spans on each request's path
  double latency_us = 0.0;  // Σ end-to-end latency of the same requests

  void view(const runtime::InferenceResult& r) {
    queue_us.push_back(r.queue_us);
    formation_sum_us += r.batch_formation_us;
    infer_sum_us += r.infer_us;
    ++served;
  }
};

/// Mean micro-batch size between two scrapes of the runtime's public
/// `batch_size` histogram.
double scraped_batch_mean(const runtime::RegistrySnapshot& before,
                          const runtime::RegistrySnapshot& after) {
  double sum = 0.0, count = 0.0;
  for (const auto& [name, h] : after.histograms) {
    if (name == "batch_size") sum += h.sum, count += static_cast<double>(h.count);
  }
  for (const auto& [name, h] : before.histograms) {
    if (name == "batch_size") sum -= h.sum, count -= static_cast<double>(h.count);
  }
  return count > 0.0 ? sum / count : 0.0;
}

int64_t scraped_counter(const runtime::RegistrySnapshot& scrape,
                        const std::string& wanted) {
  for (const auto& [name, v] : scrape.counters) {
    if (name == wanted) return v;
  }
  return 0;
}

void add_runtime_metrics(const RuntimeTrace& t, const SloAccount& slo,
                         double batch_size_mean, int64_t failovers,
                         std::map<std::string, Metric>& m) {
  const double served = static_cast<double>(std::max<int64_t>(1, t.served));
  m["runtime.admit_us"] = {mean(t.admit_us), "us"};
  m["runtime.queue_us.p50"] = {quantile(t.queue_us, 0.5), "us"};
  m["runtime.queue_us.p99"] = {quantile(t.queue_us, 0.99), "us"};
  m["runtime.batch_formation_us"] = {t.formation_sum_us / served, "us"};
  m["runtime.infer_us"] = {t.infer_sum_us / served, "us"};
  m["runtime.batch_size_mean"] = {batch_size_mean, "count"};
  m["runtime.reject_frac"] = {slo.failed_frac(), "frac"};
  m["runtime.fleet_failovers"] = {static_cast<double>(failovers), "count"};
  m["runtime.group_fuse_us"] = {mean(t.fuse_us), "us"};
  m["runtime.gen_lag_us.p50"] = {quantile(t.gen_lag_us, 0.5), "us"};
  m["runtime.gen_lag_us.p99"] = {quantile(t.gen_lag_us, 0.99), "us"};
  m["trace.coverage_frac"] = {t.covered_us / std::max(1.0, t.latency_us),
                              "frac"};
}

// ------------------------------------------------------ result assembly --

/// What one timed phase measured: one record per attempted request.
struct Measured {
  std::vector<RequestRecord> records;
  double wall_s = 0.0;
  bool identical = true;
};

// Every workload's latency limit is one frame period at 50 fps: a camera's
// result must be ready before its next frame.
constexpr double kFrameLimitUs = 20000.0;

// Latency is reported at the phase's fastest percentile: a shared host's
// neighbours only ever add time to a request, so the p1 of thousands of
// requests (>= 1000, so >= 10 beyond it) tracks the program's own cost,
// where the p50 tracks how busy the neighbours were (README.md).
double p1_us(const Measured& m) {
  return quantile(completed_latencies(m.records), 0.01);
}

/// Logs a phase's sample count, p1, p50 and tail. The tail is the median of
/// chunked p99s (each chunk >= 1000 samples, so each p99 has >= 10 samples
/// beyond it). The p50 and the tail are logged, not reported as metrics:
/// under a shared host's slow spells they spread beyond any usable bound
/// (see README.md).
void log_latency(const char* what, const Measured& m) {
  const std::vector<double> latencies = completed_latencies(m.records);
  const std::optional<double> p99 = chunked_quantile(m.records, 0.99);
  std::printf("[servbench] %s: %zu requests, %zu latency samples, %.3f s, "
              "p1 %.1f us, p50 %.1f us, p99 %s us\n",
              what, m.records.size(), latencies.size(), m.wall_s,
              quantile(latencies, 0.01), quantile(latencies, 0.5),
              p99 ? std::to_string(*p99).c_str() : "n/a (< 1000 samples)");
}

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
};

void add_accuracy(const Accuracy& acc, Report& rep, bool trace) {
  rep.correct = rep.correct && acc.identical;
  rep.attempted += acc.attempted;
  if (trace) return;
  rep.metrics["f1_quantized"] = {acc.f1_quantized, "f1"};
  rep.metrics["f1_task_specific"] = {acc.f1_task_specific, "f1"};
  rep.metrics["f1_fused"] = {acc.f1_fused, "f1"};
}

/// Workload sanity: an untrained deployment leaves detect/kg/fusion idle.
void require_live_detections(const Accuracy& acc) {
  if (acc.f1_quantized > 0.0 && acc.f1_task_specific > 0.0 &&
      acc.f1_fused > 0.0 && acc.final_per_img_int8 > 0.0 &&
      acc.final_per_img_fp32 > 0.0) {
    return;
  }
  std::fprintf(stderr,
               "servbench: refusing to report: F1 q=%.3f ts=%.3f fused=%.3f, "
               "final detections/img int8=%.3f fp32=%.3f (a zero means the "
               "detect/kg/fusion layers would be measured idle)\n",
               acc.f1_quantized, acc.f1_task_specific, acc.f1_fused,
               acc.final_per_img_int8, acc.final_per_img_fp32);
  std::exit(2);
}

void add_setup(const SetupStats& s, Report& rep, bool trace) {
  if (!trace) {
    rep.metrics["setup_s"] = {s.setup_s, "s"};
    return;
  }
  rep.metrics["distill.pretrain_teacher_s"] = {s.teacher_s, "s"};
  rep.metrics["distill.prepare_task_specific_s"] = {s.task_specific_s, "s"};
  rep.metrics["quant.prepare_quantized_s"] = {s.quantized_s, "s"};
  rep.metrics["llm.define_task_ms"] = {s.define_task_ms, "ms"};
  rep.metrics["core.publish_ms"] = {s.publish_ms, "ms"};
  rep.metrics["runtime.server_start_ms"] = {s.server_start_ms, "ms"};
}

/// The end-to-end metrics of a timed phase. Call it straight after the
/// phase: peak RSS is read before this file's statistics allocate anything.
void add_measured(const char* what, const Measured& m, bool closed_loop,
                  Report& rep) {
  rep.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  log_latency(what, m);
  const SloAccount a = account(m.records, kFrameLimitUs);
  rep.attempted += a.attempted;
  rep.failed += a.rejected + a.failed + a.expired;
  rep.correct = rep.correct && m.identical;
  rep.metrics["img_per_s"] = {closed_loop ? closed_loop_rate(m.records)
                                          : completed_rate(m.records, m.wall_s),
                              "img/s"};
  rep.metrics["latency_p1_us"] = {p1_us(m), "us"};
  rep.metrics["slo_attain_frac"] = {a.attain_frac(), "frac"};
}

// ----------------------------------------------------------- layer probes --

/// Median per-call microseconds of `fn` over >= min_calls calls and at
/// least `budget_s` seconds, after 3 warm-up calls.
template <typename Fn>
double median_call_us(Fn&& fn, double budget_s, int min_calls = 7) {
  for (int i = 0; i < 3; ++i) fn();
  std::vector<double> calls;
  const double start = now_us();
  while (static_cast<int>(calls.size()) < min_calls ||
         now_us() - start < budget_s * 1e6) {
    const double t0 = now_us();
    fn();
    calls.push_back(now_us() - t0);
  }
  return median(std::move(calls));
}

Tensor pool_batch(const Inputs& in, int64_t first, int64_t b) {
  std::vector<const Tensor*> ptrs;
  for (int64_t i = 0; i < b; ++i) {
    ptrs.push_back(&in.scenes.scene((first + i) % in.scenes.size()).image);
  }
  return stack(ptrs);
}

/// The per-layer ledger measured serially on the published snapshot: model
/// cost per image (core), the profile sections' shares of it (quant/tensor),
/// and decode -> match -> NMS recomposed from detect and kg calls, which must
/// equal DeploymentSnapshot::decode_batch.
bool layer_ledger(const Deployment& dep, const Inputs& in,
                  std::map<std::string, Metric>& m) {
  const core::DeploymentSnapshot& snap = *dep.snapshot;
  const kg::TaskId task = dep.tasks[kPrimaryTask].id;
  const core::FrameworkOptions& options = dep.fw->options();
  const std::pair<ConfigKind, const char*> configs[] = {{kFp32, "fp32"},
                                                        {kInt8, "int8"}};

  for (const auto& [config, name] : configs) {
    for (const int64_t b : {1, 8, 32}) {
      const Tensor batch = pool_batch(in, 0, b);
      const double us = median_call_us(
          [&] { (void)snap.infer_raw(batch, task, config); }, 0.2);
      m["core.infer_raw_us_per_img." + std::string(name) + ".b" +
        std::to_string(b)] = {us / static_cast<double>(b), "us"};
    }
    const Tensor batch = pool_batch(in, 0, 8);
    const vit::VitOutput raw = snap.infer_raw(batch, task, config);
    const double us = median_call_us(
        [&] { (void)snap.decode_batch(raw, task, config); }, 0.05);
    m["core.decode_batch_us_per_img." + std::string(name)] = {us / 8.0, "us"};
  }

  // Section shares of infer_raw: INT8 at batch 1 (camera_int8's shape) and
  // fp32 at batch 32 (batch_fp32's shape).
  const auto profiled = [&](ConfigKind config, int64_t b) {
    const Tensor batch = pool_batch(in, 0, b);
    (void)snap.infer_raw(batch, task, config);
    profile::reset();
    profile::set_enabled(true);
    const double start = now_us();
    int calls = 0;
    while (calls < 16 || now_us() - start < 0.15e6) {
      (void)snap.infer_raw(batch, task, config);
      ++calls;
    }
    const double total_ns = (now_us() - start) * 1e3;
    profile::set_enabled(false);
    std::map<profile::Section, double> share;
    double attributed = 0.0;
    for (const profile::SectionStats& s : profile::snapshot()) {
      share[s.section] = static_cast<double>(s.total_ns) / total_ns;
      attributed += static_cast<double>(s.total_ns);
    }
    profile::reset();
    return std::tuple{share, attributed, total_ns};
  };
  const auto [int8_share, int8_attr, int8_total] = profiled(kInt8, 1);
  const auto [fp32_share, fp32_attr, fp32_total] = profiled(kFp32, 32);
  const auto frac = [](const std::map<profile::Section, double>& share,
                       profile::Section s) {
    const auto it = share.find(s);
    return it == share.end() ? 0.0 : it->second;
  };
  using profile::Section;
  m["quant.int8_quantize_frac"] = {frac(int8_share, Section::kInt8Quantize),
                                   "frac"};
  m["quant.int8_dequant_frac"] = {frac(int8_share, Section::kInt8Dequant),
                                  "frac"};
  m["quant.int8_pack_frac"] = {frac(int8_share, Section::kInt8Pack), "frac"};
  m["quant.int8_kernel_frac"] = {frac(int8_share, Section::kInt8Kernel),
                                 "frac"};
  m["tensor.gemm_pack_frac"] = {frac(fp32_share, Section::kGemmPack), "frac"};
  m["tensor.gemm_kernel_frac"] = {frac(fp32_share, Section::kGemmKernel),
                                  "frac"};
  m["profile.unattributed_frac.int8"] = {1.0 - int8_attr / int8_total, "frac"};
  m["profile.unattributed_frac.fp32"] = {1.0 - fp32_attr / fp32_total, "frac"};
  m["profile.unattributed_frac"] = {
      1.0 - (int8_attr + fp32_attr) / (int8_total + fp32_total), "frac"};

  // decode -> relevance (KG matcher for INT8, relevance head for fp32) ->
  // NMS, recomposed over the whole pool in batches of 8.
  const kg::TaskTable::Entry* entry = snap.tasks().find(task);
  ITASK_CHECK(entry != nullptr, "servbench: eval task missing");
  double decode_us = 0.0, match_us = 0.0, nms_us = 0.0;
  double candidates = 0.0, kept_int8 = 0.0, candidates_int8 = 0.0,
         final_dets = 0.0;
  double final_int8 = 0.0, final_fp32 = 0.0;
  bool identical = true;
  int64_t images = 0;
  for (const ConfigKind config : {kFp32, kInt8}) {
    for (int64_t first = 0; first < in.scenes.size(); first += 8) {
      const Tensor batch = pool_batch(in, first, 8);
      const vit::VitOutput raw = snap.infer_raw(batch, task, config);
      const std::vector<Dets> want = snap.decode_batch(raw, task, config);
      const double t0 = now_us();
      std::vector<Dets> cands = detect::decode(raw, options.decoder);
      const double t1 = now_us();
      std::vector<Dets> kept(cands.size());
      const kg::TaskMatcher matcher(entry->compiled, options.matcher);
      for (size_t bi = 0; bi < cands.size(); ++bi) {
        for (detect::Detection& d : cands[bi]) {
          if (config == kFp32) {
            const float logit =
                raw.relevance.at({static_cast<int64_t>(bi), d.cell, 0});
            const float rel = 1.0f / (1.0f + std::exp(-logit));
            d.task_score = rel;
            if (rel < options.relevance_threshold) continue;
            d.confidence = d.objectness * rel;
          } else {
            d.task_score = matcher.score(d.attr_probs, d.class_probs);
            if (!matcher.relevant(d.attr_probs, d.class_probs)) continue;
            d.confidence =
                d.objectness * matcher.confidence(d.attr_probs, d.class_probs);
          }
          kept[bi].push_back(std::move(d));
        }
      }
      const double t2 = now_us();
      std::vector<double> relevant;
      for (const Dets& k : kept) relevant.push_back(static_cast<double>(k.size()));
      std::vector<Dets> got;
      for (Dets& k : kept) got.push_back(detect::nms(std::move(k), options.nms_iou));
      const double t3 = now_us();
      decode_us += t1 - t0;
      nms_us += t3 - t2;
      for (size_t bi = 0; bi < got.size(); ++bi) {
        identical = identical && same_detections(got[bi], want[bi]);
        const double n_cand = static_cast<double>(cands[bi].size());
        const double n_final = static_cast<double>(got[bi].size());
        candidates += n_cand;
        final_dets += n_final;
        if (config == kInt8) {
          candidates_int8 += n_cand;
          kept_int8 += relevant[bi];
          final_int8 += n_final;
        } else {
          final_fp32 += n_final;
        }
      }
      if (config == kInt8) match_us += t2 - t1;
      images += static_cast<int64_t>(got.size());
    }
  }
  const double n = static_cast<double>(images);
  const double per_config = n / 2.0;
  m["detect.decode_us_per_img"] = {decode_us / n, "us"};
  m["detect.nms_us_per_img"] = {nms_us / n, "us"};
  m["detect.candidates_per_img"] = {candidates / n, "count"};
  m["detect.final_per_img"] = {final_dets / n, "count"};
  m["kg.match_us_per_img"] = {match_us / per_config, "us"};
  m["kg.relevant_frac"] = {kept_int8 / std::max(1.0, candidates_int8), "frac"};
  if (final_int8 == 0.0 || final_fp32 == 0.0) {
    std::fprintf(stderr, "servbench: refusing to report: final detections "
                         "int8=%.0f fp32=%.0f over the pool\n",
                 final_int8, final_fp32);
    std::exit(2);
  }

  // Fusion of K pre-computed per-view results, as a gather does it.
  std::vector<std::vector<Dets>> groups;
  for (int64_t i = 0; i < std::min<int64_t>(64, in.scenes.size()); ++i) {
    std::vector<Dets> per_view;
    for (const Tensor& v : in.views[static_cast<size_t>(i)]) {
      per_view.push_back(snap.infer_batch(as_batch(v), task, kFp32)[0]);
    }
    groups.push_back(std::move(per_view));
  }
  const double fuse_call_us = median_call_us(
      [&] {
        for (const auto& g : groups) (void)detect::fuse_views(g, fusion_options());
      },
      0.05);
  m["detect.fuse_views_us_per_group"] = {
      fuse_call_us / static_cast<double>(groups.size()), "us"};
  return identical;
}

// ----------------------------------------------------------- camera_int8 --

/// One edge camera with one frame in flight: closed loop, one client, INT8,
/// single views, one worker, max_batch 1.
runtime::RuntimeOptions camera_options() {
  runtime::RuntimeOptions o;
  o.workers = 1;
  o.max_batch = 1;
  o.max_wait_us = 0;
  o.queue_capacity = 8;
  o.fusion = fusion_options();
  return o;
}

// Records are faulted in up front for this rate (about 3x today's), so
// peak_rss_mb does not grow with the number of requests a run completes.
constexpr double kCameraRecordRps = 25000.0;

Measured camera_loop(runtime::InferenceServer& server, const Inputs& in,
                     const Reference& ref, kg::TaskId task, double seconds,
                     int64_t min_requests, CpuRotation& cpus,
                     RuntimeTrace* trace) {
  Measured m;
  m.records.resize(static_cast<size_t>(
      static_cast<double>(min_requests) + seconds * kCameraRecordRps));
  m.records.clear();
  const int64_t n = in.scenes.size();
  const double start = now_us();
  double prev_ready = start;
  for (int64_t i = 0;
       i < min_requests || now_us() - start < seconds * 1e6; ++i) {
    cpus.at((now_us() - start) * 1e-6);
    const int64_t idx = i % n;
    Tensor image = in.scenes.scene(idx).image;
    const double due = now_us();
    auto r = server.try_submit(std::move(image), task, kInt8);
    const double admitted = trace ? now_us() : 0.0;
    if (!r.admitted()) {
      m.records.push_back({Outcome::kRejected});
      continue;
    }
    runtime::InferenceResult res;
    try {
      res = r.future->get();
    } catch (const std::exception&) {
      m.records.push_back({Outcome::kFailed});
      continue;
    }
    const double ready = now_us();
    m.records.push_back(
        {Outcome::kCompleted, ready - due, (ready - start) * 1e-6, 1});
    m.identical = m.identical &&
                  same_detections(res.detections,
                                  ref.single[static_cast<size_t>(idx)]);
    if (trace) {
      const double admit = admitted - due;
      trace->admit_us.push_back(admit);
      trace->gen_lag_us.push_back(due - prev_ready);
      trace->view(res);
      trace->covered_us +=
          admit + res.queue_us + res.batch_formation_us + res.infer_us;
      trace->latency_us += ready - due;
    }
    prev_ready = ready;
  }
  m.wall_s = (now_us() - start) * 1e-6;
  return m;
}

Report run_camera(const Args& args) {
  CpuRotation cpus;
  Report rep;
  SetupStats setup;
  auto [dep, server] = set_up<runtime::InferenceServer>(
      [](std::shared_ptr<const core::DeploymentSnapshot> snap) {
        return std::make_unique<runtime::InferenceServer>(std::move(snap),
                                                          camera_options());
      },
      setup);
  const Inputs in = make_inputs(dep.fw->options(), kPoolScenes, args.seed);
  const kg::TaskId task = dep.tasks[kPrimaryTask].id;
  // Traced runs also serve groups, so they need the fused reference.
  const Reference ref =
      serial_reference(*dep.snapshot, in, task, kInt8, args.trace);
  camera_loop(*server, in, ref, task, 0.0, 512, cpus, nullptr);  // warm-up

  if (!args.trace) {
    add_measured("camera_int8",
                 camera_loop(*server, in, ref, task, args.seconds, 0, cpus,
                             nullptr),
                 true, rep);
  } else {
    const Measured plain =
        camera_loop(*server, in, ref, task, args.seconds / 2, 0, cpus, nullptr);
    RuntimeTrace t;
    const runtime::RegistrySnapshot before = server->metrics().snapshot();
    const Measured traced =
        camera_loop(*server, in, ref, task, args.seconds / 2, 0, cpus, &t);
    const runtime::RegistrySnapshot after = server->metrics().snapshot();
    // A group tail so the gather's fusion span is measured here too.
    for (size_t i = 0; i < 128; ++i) {
      auto g = server->try_submit_group(in.views[i], task, kInt8);
      ITASK_CHECK(g.admitted(), "servbench: probe group rejected");
      const runtime::GroupInferenceResult r = g.future->get();
      t.fuse_us.push_back(r.fuse_us);
      rep.correct = rep.correct && same_detections(r.fused, ref.fused[i]);
    }
    add_runtime_metrics(t, account(traced.records, kFrameLimitUs),
                        scraped_batch_mean(before, after), 0, rep.metrics);
    rep.metrics["trace.overhead_frac"] = {
        p1_us(traced) / p1_us(plain) - 1.0, "frac"};
    rep.correct = rep.correct && plain.identical && traced.identical &&
                  layer_ledger(dep, in, rep.metrics);
    rep.attempted += static_cast<int64_t>(traced.records.size());
  }
  const Accuracy acc = accuracy_pass(dep, served_path(*server));
  require_live_detections(acc);
  add_accuracy(acc, rep, args.trace);
  add_setup(setup, rep, args.trace);
  server->shutdown();
  return rep;
}

// ------------------------------------------------------------ batch_fp32 --

/// Offline throughput: serial infer_batch over batches of 32 for the
/// task-specific students of two tasks; no runtime.
constexpr int64_t kBatch = 32;

struct BatchInputs {
  std::vector<Tensor> batches;  // [32, C, H, W] each
  std::vector<std::vector<int64_t>> members;  // pool index per batch row
};

BatchInputs make_batches(const Inputs& in, uint64_t seed) {
  std::vector<int64_t> order(static_cast<size_t>(in.scenes.size()));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  rng.shuffle(order);
  BatchInputs b;
  for (size_t start = 0; start + kBatch <= order.size(); start += kBatch) {
    std::vector<const Tensor*> ptrs;
    std::vector<int64_t> idx;
    for (int64_t j = 0; j < kBatch; ++j) {
      idx.push_back(order[start + static_cast<size_t>(j)]);
      ptrs.push_back(&in.scenes.scene(idx.back()).image);
    }
    b.batches.push_back(stack(ptrs));
    b.members.push_back(std::move(idx));
  }
  return b;
}

/// Spans around the two halves of infer_batch when traced (infer_raw then
/// decode_batch — infer_batch's definition), one call otherwise.
Measured batch_loop(const Deployment& dep, const BatchInputs& b,
                    const std::vector<Reference>& refs, double seconds,
                    int64_t min_batches, CpuRotation& cpus,
                    RuntimeTrace* trace) {
  Measured m;
  const core::DeploymentSnapshot& snap = *dep.snapshot;
  const auto nb = static_cast<int64_t>(b.batches.size());
  const double start = now_us();
  for (int64_t i = 0; i < min_batches || now_us() - start < seconds * 1e6;
       ++i) {
    cpus.at((now_us() - start) * 1e-6);
    const auto bi = static_cast<size_t>(i % nb);
    const auto t = static_cast<size_t>((i / nb) % kStudentTasks);
    const kg::TaskId task = dep.tasks[t].id;
    const double due = now_us();
    std::vector<Dets> out;
    if (trace) {
      const vit::VitOutput raw = snap.infer_raw(b.batches[bi], task, kFp32);
      const double mid = now_us();
      out = snap.decode_batch(raw, task, kFp32);
      const double end = now_us();
      trace->covered_us += (mid - due) + (end - mid);
      trace->latency_us += end - due;
    } else {
      out = snap.infer_batch(b.batches[bi], task, kFp32);
    }
    const double ready = now_us();
    m.records.push_back(
        {Outcome::kCompleted, ready - due, (ready - start) * 1e-6, kBatch});
    for (int64_t j = 0; j < kBatch && m.identical; ++j) {
      m.identical = same_detections(
          out[static_cast<size_t>(j)],
          refs[t].single[static_cast<size_t>(b.members[bi][static_cast<size_t>(j)])]);
    }
  }
  m.wall_s = (now_us() - start) * 1e-6;
  return m;
}

Report run_batch(const Args& args) {
  CpuRotation cpus;
  Report rep;
  SetupStats setup;
  auto [dep, none] = set_up<runtime::InferenceServer>(
      [](std::shared_ptr<const core::DeploymentSnapshot>) {
        return std::unique_ptr<runtime::InferenceServer>();
      },
      setup);
  const Inputs in = make_inputs(dep.fw->options(), kPoolScenes, args.seed);
  const BatchInputs b = make_batches(in, args.seed);
  std::vector<Reference> refs;
  for (int64_t t = 0; t < kStudentTasks; ++t) {
    refs.push_back(serial_reference(*dep.snapshot, in,
                                    dep.tasks[static_cast<size_t>(t)].id,
                                    kFp32, args.trace));
  }
  batch_loop(dep, b, refs, 0.0, 16, cpus, nullptr);  // warm-up

  if (!args.trace) {
    add_measured("batch_fp32",
                 batch_loop(dep, b, refs, args.seconds, 0, cpus, nullptr),
                 true, rep);
  } else {
    const Measured plain =
        batch_loop(dep, b, refs, args.seconds / 2, 0, cpus, nullptr);
    RuntimeTrace serial;
    const Measured traced =
        batch_loop(dep, b, refs, args.seconds / 2, 0, cpus, &serial);
    rep.correct = rep.correct && plain.identical && traced.identical;
    rep.attempted += static_cast<int64_t>(traced.records.size());
    // The workload has no runtime; its runtime.* ledger comes from the same
    // batches submitted as 32-request bursts to a one-worker server with
    // max_batch 32 — what the runtime would add to this mix.
    runtime::RuntimeOptions ro;
    ro.workers = 1;
    ro.max_batch = kBatch;
    ro.max_wait_us = 500;
    ro.queue_capacity = 2 * kBatch;
    ro.fusion = fusion_options();
    const double start_t0 = now_us();
    runtime::InferenceServer server(dep.snapshot, ro);
    setup.server_start_ms = (now_us() - start_t0) * 1e-3;
    RuntimeTrace t;
    SloAccount probe;
    for (int64_t i = 0; i < 96; ++i) {
      const auto bi = static_cast<size_t>(
          i % static_cast<int64_t>(b.batches.size()));
      const auto task_index = static_cast<size_t>(i % kStudentTasks);
      const kg::TaskId task = dep.tasks[task_index].id;
      struct Sent {
        int64_t scene;
        double admit_us;
        std::future<runtime::InferenceResult> future;
      };
      std::vector<Sent> sent;
      const double due = now_us();
      for (const int64_t idx : b.members[bi]) {
        const double a0 = now_us();
        auto r = server.try_submit(in.scenes.scene(idx).image, task, kFp32);
        const double a1 = now_us();
        ++probe.attempted;
        if (!r.admitted()) {
          ++probe.rejected;
          continue;
        }
        sent.push_back({idx, a1 - a0, std::move(*r.future)});
      }
      for (Sent& s : sent) {
        const runtime::InferenceResult res = s.future.get();
        t.admit_us.push_back(s.admit_us);
        t.gen_lag_us.push_back(static_cast<double>(res.timeline.admitted_us) -
                               due);
        t.view(res);
        rep.correct =
            rep.correct &&
            same_detections(res.detections,
                            refs[task_index].single[static_cast<size_t>(s.scene)]);
      }
    }
    for (size_t i = 0; i < 128; ++i) {
      auto g = server.try_submit_group(in.views[i], dep.tasks[kPrimaryTask].id,
                                       kFp32);
      ITASK_CHECK(g.admitted(), "servbench: probe group rejected");
      const runtime::GroupInferenceResult r = g.future->get();
      t.fuse_us.push_back(r.fuse_us);
      rep.correct = rep.correct && same_detections(r.fused, refs[kPrimaryTask].fused[i]);
    }
    server.shutdown();
    t.covered_us = serial.covered_us;
    t.latency_us = serial.latency_us;
    add_runtime_metrics(
        t, probe, scraped_batch_mean({}, server.metrics().snapshot()), 0,
        rep.metrics);
    rep.metrics["trace.overhead_frac"] = {
        p1_us(traced) / p1_us(plain) - 1.0, "frac"};
    rep.correct = rep.correct && layer_ledger(dep, in, rep.metrics);
  }
  const Accuracy acc = accuracy_pass(dep, batched_path(*dep.snapshot));
  require_live_detections(acc);
  add_accuracy(acc, rep, args.trace);
  add_setup(setup, rep, args.trace);
  return rep;
}

// ------------------------------------------------------ fleet_mixed_open --

/// Open loop through the fleet: Poisson arrivals, zipf 1.1 over 4 tasks, a
/// fifth of requests K=3 groups; the hot task (rank 0) runs task-specific
/// fp32, the rest INT8 + KG.
runtime::FleetOptions fleet_options() {
  runtime::FleetOptions o;
  o.shards = 2;
  o.replication = 2;
  o.shard_options.workers = 1;
  o.shard_options.max_batch = 8;
  o.shard_options.max_wait_us = 500;
  o.shard_options.queue_capacity = 64;
  o.shard_options.fusion = fusion_options();
  return o;
}

runtime::LoadGenOptions fleet_load() {
  runtime::LoadGenOptions o;
  o.tasks = 4;
  o.zipf_s = 1.1;
  o.scenes = kPoolScenes;
  o.group_fraction = 0.2;
  o.group_views = kViews;
  return o;
}

// The offered rate: about a sixth of the fleet's capacity on an idle 4-core
// host, and still under it when a shared host runs the fleet 3x slower.
constexpr double kFleetRate = 2000.0;

ConfigKind fleet_config(int64_t task_index) {
  return task_index == 0 ? kFp32 : kInt8;
}

struct OpenPhase {
  Measured m;
  std::vector<double> lateness_us;
};

/// Replays one pre-generated schedule: tensors are copied from the pool
/// before each due time, the generator sleeps then spins to the due time,
/// and each request is timed from its due time to the runtime's own
/// result-ready reading (so a late generator or a stall counts against the
/// requests it delays).
OpenPhase open_phase(runtime::InferenceFleet& fleet, const Deployment& dep,
                     const Inputs& in, const std::vector<Reference>& refs,
                     const std::vector<runtime::GeneratedRequest>& schedule,
                     RuntimeTrace* trace) {
  struct Flight {
    int64_t due_us = 0;
    double admit_us = 0.0;
    std::optional<std::future<runtime::InferenceResult>> single;
    std::optional<std::future<runtime::GroupInferenceResult>> group;
  };
  OpenPhase ph;
  std::vector<Flight> flights(schedule.size());
  const int64_t base = runtime::steady_clock_us() + 2000;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const runtime::GeneratedRequest& req = schedule[i];
    const auto scene = static_cast<size_t>(req.scene % in.scenes.size());
    const kg::TaskId task = dep.tasks[static_cast<size_t>(req.task_index)].id;
    const ConfigKind config = fleet_config(req.task_index);
    Tensor image;
    std::vector<Tensor> views;
    if (req.views > 1) {
      views = in.views[scene];
    } else {
      image = in.scenes.scene(static_cast<int64_t>(scene)).image;
    }
    Flight& f = flights[i];
    f.due_us = base + req.arrival_us;
    if (f.due_us - runtime::steady_clock_us() > 300) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(
              std::chrono::microseconds(f.due_us - 150)));
    }
    while (runtime::steady_clock_us() < f.due_us) {
    }
    const double s0 = now_us();
    ph.lateness_us.push_back(std::max(0.0, s0 - static_cast<double>(f.due_us)));
    if (req.views > 1) {
      auto r = fleet.try_submit_group(std::move(views), task, config);
      if (r.admitted()) f.group = std::move(*r.future);
    } else {
      auto r = fleet.try_submit(std::move(image), task, config);
      if (r.admitted()) f.single = std::move(*r.future);
    }
    f.admit_us = now_us() - s0;
  }
  int64_t last_ready = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const runtime::GeneratedRequest& req = schedule[i];
    Flight& f = flights[i];
    const auto scene = static_cast<size_t>(req.scene % in.scenes.size());
    const Reference& ref =
        refs[static_cast<size_t>(req.task_index)];
    if (!f.single && !f.group) {
      ph.m.records.push_back({Outcome::kRejected});
      continue;
    }
    int64_t ready = 0;
    int64_t images = 1;
    double covered = 0.0;
    try {
      if (f.single) {
        const runtime::InferenceResult r = f.single->get();
        ready = r.timeline.infer_end_us;
        ph.m.identical =
            ph.m.identical && same_detections(r.detections, ref.single[scene]);
        if (trace) {
          trace->view(r);
          covered = r.queue_us + r.batch_formation_us + r.infer_us;
        }
      } else {
        const runtime::GroupInferenceResult r = f.group->get();
        const int64_t admitted = r.views.front().timeline.admitted_us;
        ready = admitted + static_cast<int64_t>(r.total_us);
        ph.m.identical =
            ph.m.identical && same_detections(r.fused, ref.fused[scene]);
        images = r.view_count;
        if (trace) {
          int64_t last_view = admitted;
          for (const runtime::InferenceResult& v : r.views) {
            trace->view(v);
            last_view = std::max(last_view, v.timeline.infer_end_us);
          }
          trace->fuse_us.push_back(r.fuse_us);
          covered = static_cast<double>(last_view - admitted) + r.fuse_us;
        }
      }
    } catch (const runtime::DeadlineExceeded&) {
      ph.m.records.push_back({Outcome::kExpired});
      continue;
    } catch (const std::exception&) {
      ph.m.records.push_back({Outcome::kFailed});
      continue;
    }
    const double latency = static_cast<double>(ready - f.due_us);
    ph.m.records.push_back(
        {Outcome::kCompleted, latency,
         static_cast<double>(ready - flights.front().due_us) * 1e-6, images});
    last_ready = std::max(last_ready, ready);
    if (trace) {
      const double lag = ph.lateness_us[i];
      trace->gen_lag_us.push_back(lag);
      trace->admit_us.push_back(f.admit_us);
      trace->covered_us += lag + f.admit_us + covered;
      trace->latency_us += latency;
    }
  }
  const int64_t first_due = flights.front().due_us;
  const int64_t last_due = flights.back().due_us;
  ph.m.wall_s = static_cast<double>(std::max(last_ready, last_due) - first_due) * 1e-6;
  return ph;
}

Report run_fleet(const Args& args) {
  Report rep;
  SetupStats setup;
  auto [dep, fleet] = set_up<runtime::InferenceFleet>(
      [](std::shared_ptr<const core::DeploymentSnapshot> snap) {
        return std::make_unique<runtime::InferenceFleet>(std::move(snap),
                                                         fleet_options());
      },
      setup);
  const Inputs in = make_inputs(dep.fw->options(), kPoolScenes, args.seed);
  std::vector<Reference> refs;
  for (int64_t t = 0; t < static_cast<int64_t>(dep.tasks.size()); ++t) {
    refs.push_back(serial_reference(*dep.snapshot, in,
                                    dep.tasks[static_cast<size_t>(t)].id,
                                    fleet_config(t), true));
  }
  const runtime::LoadGenOptions load = fleet_load();
  int64_t phase = 0;
  const auto schedule = [&](double seconds) {
    return phase_schedule(load, kFleetRate, seconds, args.seed, phase++);
  };
  open_phase(*fleet, dep, in, refs, schedule(0.5), nullptr);

  if (!args.trace) {
    const OpenPhase ph =
        open_phase(*fleet, dep, in, refs, schedule(args.seconds),
                   nullptr);
    add_measured("fleet_mixed_open", ph.m, false, rep);
    std::printf("[servbench] generator lateness p50 %.2f us, p99 %.2f us\n",
                quantile(ph.lateness_us, 0.5), quantile(ph.lateness_us, 0.99));
  } else {
    const OpenPhase plain =
        open_phase(*fleet, dep, in, refs,
                   schedule(args.seconds / 2), nullptr);
    RuntimeTrace t;
    const runtime::RegistrySnapshot before = fleet->merged_metrics();
    const OpenPhase traced = open_phase(
        *fleet, dep, in, refs, schedule(args.seconds / 2), &t);
    const runtime::RegistrySnapshot after = fleet->merged_metrics();
    add_runtime_metrics(
        t, account(traced.m.records, kFrameLimitUs),
        scraped_batch_mean(before, after),
        scraped_counter(after, "fleet_failovers") -
            scraped_counter(before, "fleet_failovers"),
        rep.metrics);
    rep.metrics["trace.overhead_frac"] = {
        p1_us(traced.m) / p1_us(plain.m) - 1.0, "frac"};
    rep.correct = rep.correct && plain.m.identical && traced.m.identical &&
                  layer_ledger(dep, in, rep.metrics);
    rep.attempted += static_cast<int64_t>(traced.m.records.size());
  }
  const Accuracy acc = accuracy_pass(dep, served_path(*fleet));
  require_live_detections(acc);
  add_accuracy(acc, rep, args.trace);
  add_setup(setup, rep, args.trace);
  fleet->shutdown();
  return rep;
}

// ------------------------------------------------------------------ main --

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0.0) {
    return std::nullopt;
  }
  return a;
}

}  // namespace
}  // namespace itask::servbench

int main(int argc, char** argv) {
  using namespace itask::servbench;
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: servbench --workload <camera_int8|batch_fp32|"
                 "fleet_mixed_open> --seed N --seconds S --trace 0|1\n");
    return 64;
  }
  try {
    Report rep;
    if (args->workload == "camera_int8") {
      rep = run_camera(*args);
    } else if (args->workload == "batch_fp32") {
      rep = run_batch(*args);
    } else if (args->workload == "fleet_mixed_open") {
      rep = run_fleet(*args);
    } else {
      std::fprintf(stderr, "servbench: unknown workload %s\n",
                   args->workload.c_str());
      return 64;
    }
    std::printf("%s\n", result_json(rep.correct, rep.attempted, rep.failed,
                                    rep.metrics)
                            .c_str());
    std::fflush(stdout);
    return rep.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servbench: %s\n", e.what());
    return 1;
  }
}
