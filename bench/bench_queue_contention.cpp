// QUEUE — run-queue fan-in microbenchmark: ShardedMpmcQueue with one shard
// (one lock for every producer and consumer) vs more mutex-striped shards
// (producer-hashed push, consumer work-pull), and the additional win from
// batched submission (push_batch: one lock + one wakeup per burst).
//
// Each cell runs P producer threads pushing `items` no-op tokens at C
// consumer threads and reports million ops/sec (one op = one item through
// the queue). The sweep over shard counts shows the fan-in collapsing as
// stripes are added; the sharded queue's collision/steal counters quantify
// why. This is the executor-layer mechanism behind the Fig. 9 throughput
// curve: every ThreadPoolExecutor submission crosses exactly this path.
//
// Flags: --producers=1,2,4,8 --consumers=8 --shards=1,2,4,8 --items=200000
//        --batch=32 --csv=DIR

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/clock.hpp"
#include "common/sharded_queue.hpp"
#include "common/table.hpp"

namespace {

using evmp::common::ShardedMpmcQueue;

/// P producers push `per_producer` tokens each via `push`; `consumers`
/// threads drain `queue` until closed-and-empty. Returns Mops/s over the
/// full produce+drain interval.
template <class Push>
double run_cell(ShardedMpmcQueue<int>& queue, int producers, int consumers,
                long per_producer, Push push) {
  std::atomic<long> consumed{0};
  const auto start = evmp::common::now();
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(consumers));
    for (int c = 0; c < consumers; ++c) {
      threads.emplace_back([&] {
        while (queue.pop().has_value()) {
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    {
      std::vector<std::jthread> prod;
      prod.reserve(static_cast<std::size_t>(producers));
      for (int p = 0; p < producers; ++p) {
        prod.emplace_back([&] { push(per_producer); });
      }
    }  // join producers
    queue.close();
  }  // join consumers
  const double secs = evmp::common::to_sec(evmp::common::now() - start);
  return secs > 0.0 ? static_cast<double>(consumed.load()) / secs / 1e6
                    : 0.0;
}

double bench_sharded(int producers, int consumers, long items,
                     std::size_t shards, long batch,
                     evmp::common::ShardedQueueStats* stats_out = nullptr) {
  ShardedMpmcQueue<int> queue(shards);
  const double mops = run_cell(
      queue, producers, consumers, items / producers, [&](long n) {
        if (batch <= 1) {
          for (long i = 0; i < n; ++i) queue.push(static_cast<int>(i));
          return;
        }
        std::vector<int> burst;
        for (long i = 0; i < n;) {
          const long m = std::min(batch, n - i);
          burst.clear();
          for (long b = 0; b < m; ++b) {
            burst.push_back(static_cast<int>(i + b));
          }
          queue.push_batch(burst);
          i += m;
        }
      });
  if (stats_out != nullptr) *stats_out = queue.stats();
  return mops;
}

}  // namespace

int main(int argc, char** argv) {
  const evmp::common::CliArgs args(argc, argv);
  const long items = args.get_long("items", 200'000);
  const long batch = args.get_long("batch", 32);
  const int consumers = static_cast<int>(args.get_long("consumers", 8));
  const auto producer_counts =
      args.get_long_list("producers", std::vector<long>{1, 2, 4, 8});
  const auto shard_counts =
      args.get_long_list("shards", std::vector<long>{1, 2, 4, 8});

  std::printf("QUEUE: run-queue fan-in, %ld items/cell, %d consumers, "
              "burst=%ld (Mops/s; one op = one item through the queue)\n",
              items, consumers, batch);

  evmp::common::TextTable table;
  std::vector<std::string> header{"producers"};
  for (long s : shard_counts) {
    header.push_back("sharded/" + std::to_string(s));
  }
  header.push_back("sharded/" + std::to_string(shard_counts.back()) +
                   "+batch");
  table.set_header(header);

  for (long producers : producer_counts) {
    const int p = static_cast<int>(producers);
    std::vector<std::string> row{std::to_string(producers)};
    evmp::common::ShardedQueueStats last_stats;
    for (long s : shard_counts) {
      row.push_back(evmp::common::fmt(
          bench_sharded(p, consumers, items, static_cast<std::size_t>(s), 1,
                        &last_stats),
          2));
    }
    row.push_back(evmp::common::fmt(
        bench_sharded(p, consumers, items,
                      static_cast<std::size_t>(shard_counts.back()), batch),
        2));
    table.add_row(row);
    std::printf("# p=%ld sharded/%ld counters: collisions=%llu steals=%llu "
                "max_depth=%llu\n",
                producers, shard_counts.back(),
                static_cast<unsigned long long>(last_stats.collisions),
                static_cast<unsigned long long>(last_stats.steals),
                static_cast<unsigned long long>(last_stats.max_depth));
  }
  table.print(std::cout);
  std::printf("# sharded/N = ShardedMpmcQueue with N stripes (per-item "
              "push; sharded/1 is the single-lock layout); +batch = "
              "push_batch bursts of %ld under one lock+wakeup.\n",
              batch);

  const std::string csv_dir = args.get("csv", "");
  if (!csv_dir.empty()) {
    evmp::common::write_csv(table, csv_dir + "/queue_contention.csv");
  }
  return 0;
}
