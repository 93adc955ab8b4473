// AB1 — ablation of Algorithm 1's line 14-16 "logical barrier": what does
// the await clause's event pumping buy over a plain blocking wait?
//
// Scenario: the EDT handles a stream of events whose handlers await a
// worker-side block. With the logical barrier (await), the EDT keeps
// dispatching the other queued events while waiting; with a plain blocking
// wait (the `default` clause), every concurrent event stalls behind the
// first. We compare probe latency and total completion time.
//
// The barrier parks while its queue is empty and wakes on a post, a due
// timer or the block's completion; "parks/await" counts those parks. With
// --check=<budgets.json> the run exits nonzero when parks per await
// exceed the file's await_parks_per_await (CI perf-smoke).

#include <cstdio>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/clock.hpp"
#include "common/table.hpp"
#include "core/runtime.hpp"
#include "core/target.hpp"
#include "event/event_loop.hpp"
#include "event/load.hpp"

namespace {

struct AblationResult {
  double total_ms = 0.0;
  double avg_response_ms = 0.0;
  double probe_p50_ms = 0.0;
  double probe_p99_ms = 0.0;
  int max_nesting = 0;
  double parks_per_await = 0.0;
};

AblationResult run_mode(evmp::Async mode, std::size_t events, double rate_hz,
                        evmp::common::Millis work) {
  evmp::event::EventLoop edt("edt");
  edt.start();
  evmp::Runtime rt;
  rt.register_edt("edt", edt);
  rt.create_worker("worker", 4);

  evmp::event::ResponseProbe probe(edt, evmp::common::Millis{2});
  probe.start();

  evmp::event::OpenLoopDriver::Options opt;
  opt.count = events;
  opt.rate_hz = rate_hz;
  opt.drain_timeout = evmp::common::Millis{120'000};

  const evmp::common::Stopwatch wall;
  const auto load = evmp::event::OpenLoopDriver::run(
      edt, opt,
      [&](std::size_t, const evmp::event::CompletionToken& token) {
        // Handler: offload to the worker, then continue with S4 on the EDT.
        rt.invoke_target_block(
            "worker",
            [work] {
              evmp::common::precise_sleep(
                  std::chrono::duration_cast<evmp::common::Nanos>(work));
            },
            mode);
        token.complete();  // S4 reached only after the join
      });
  AblationResult r;
  r.total_ms = wall.elapsed_ms();
  probe.stop();
  edt.wait_until_idle();
  r.avg_response_ms = load.response.mean_ns() / 1e6;
  r.probe_p50_ms = static_cast<double>(probe.latencies().percentile(0.5)) / 1e6;
  r.probe_p99_ms = static_cast<double>(probe.latencies().percentile(0.99)) / 1e6;
  r.max_nesting = edt.max_nesting();
  const evmp::RuntimeStats stats = rt.stats();
  if (stats.awaits != 0) {
    r.parks_per_await = static_cast<double>(stats.await_parks) /
                        static_cast<double>(stats.awaits);
  }
  rt.clear();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const evmp::common::CliArgs args(argc, argv);
  const auto events = static_cast<std::size_t>(args.get_long("events", 20));
  const double rate = args.get_double("rate", 100.0);
  const evmp::common::Millis work{args.get_long("work-ms", 15)};

  std::printf("AB1: await logical barrier vs plain blocking wait "
              "(%zu events at %.0f req/s, %lldms worker block each)\n",
              events, rate, static_cast<long long>(work.count()));

  evmp::common::TextTable table;
  table.set_header({"join strategy", "total(ms)", "avg resp(ms)",
                    "probe p50(ms)", "probe p99(ms)", "max nesting",
                    "parks/await"});
  const auto blocking = run_mode(evmp::Async::kDefault, events, rate, work);
  const auto awaiting = run_mode(evmp::Async::kAwait, events, rate, work);
  table.add_row({"default (blocking wait)", evmp::common::fmt(blocking.total_ms, 1),
                 evmp::common::fmt(blocking.avg_response_ms, 2),
                 evmp::common::fmt(blocking.probe_p50_ms, 3),
                 evmp::common::fmt(blocking.probe_p99_ms, 3),
                 std::to_string(blocking.max_nesting), "-"});
  table.add_row({"await (logical barrier)", evmp::common::fmt(awaiting.total_ms, 1),
                 evmp::common::fmt(awaiting.avg_response_ms, 2),
                 evmp::common::fmt(awaiting.probe_p50_ms, 3),
                 evmp::common::fmt(awaiting.probe_p99_ms, 3),
                 std::to_string(awaiting.max_nesting),
                 evmp::common::fmt(awaiting.parks_per_await, 2)});
  table.print(std::cout);
  std::printf(
      "\nExpected: blocking waits starve the event loop (probe latency ~ "
      "block time) and serialise the batch; the logical barrier overlaps "
      "the waits (nesting > 1), keeps probes fast and finishes the batch "
      "sooner. Note the honest trade-off: nested dispatch completes LIFO, "
      "so an individual event's response time can stretch while the EDT "
      "stays live — the paper trades per-event latency for responsiveness.\n");

  const std::string check = args.get("check", "");
  if (!check.empty()) {
    const auto budget_or =
        evmp::common::read_budget(check, "await_parks_per_await");
    if (!budget_or) return 1;
    const double budget = *budget_or;
    std::printf("\ncheck: %.2f parks/await (budget %.2f)\n",
                awaiting.parks_per_await, budget);
    if (awaiting.parks_per_await > budget) {
      std::fprintf(stderr,
                   "check FAILED: %.2f parks/await exceeds budget %.2f\n",
                   awaiting.parks_per_await, budget);
      return 1;
    }
    std::printf("check passed\n");
  }
  return 0;
}
