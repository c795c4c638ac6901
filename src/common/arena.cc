/**
 * @file
 * The shared per-thread evaluation scratch arena.
 */

#include "common/arena.hh"

namespace sparseloop {

Arena &
evalScratchArena()
{
    // One arena per thread: the engine's modeling steps are the only
    // users, they run strictly nested on one thread, and the worker
    // pool's threads (BatchEvaluator's waves) each get their own warm
    // arena.
    static thread_local Arena arena(1 << 14);
    return arena;
}

} // namespace sparseloop
