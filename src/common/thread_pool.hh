/**
 * @file
 * Reusable fixed-size worker pool: a mutex-protected work queue drained
 * by N threads, with std::future-based result retrieval.
 *
 * Runs the serving capacity sweep's probes (serving/sweep.hh) and is
 * deliberately generic: submit() accepts any nullary callable and hands
 * back a future for its result. Tasks run in submission order (FIFO
 * pickup), but completion order is up to the scheduler — callers that
 * need deterministic merges should collect futures and consume them in
 * submission order.
 */

#ifndef FLASHMEM_COMMON_THREAD_POOL_HH
#define FLASHMEM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace flashmem {

class ThreadPool
{
  public:
    /**
     * @param threads worker count; values < 1 are clamped to 1.
     * A one-thread pool is still a real pool (queue + worker), so the
     * serial and parallel code paths are identical modulo concurrency.
     */
    explicit ThreadPool(int threads);

    /** Joins all workers; pending tasks are drained first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p fn; the returned future yields its result (or rethrows
     * its exception). A throwing task never takes a worker down: the
     * exception travels to the waiter through the future, and the
     * worker thread goes on serving the queue.
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using R = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        auto future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /** hardware_concurrency with a floor of 1 (it may report 0). */
    static int defaultThreadCount();

  private:
    void enqueue(std::function<void()> job);
    void workerLoop();

    std::mutex mu_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

} // namespace flashmem

#endif // FLASHMEM_COMMON_THREAD_POOL_HH
