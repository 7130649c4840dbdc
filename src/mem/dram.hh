/**
 * @file
 * The DRAM bank controller behind every HMC vault and DDR channel:
 * per-bank row-buffer state, FR-FCFS scheduling, and data-bus
 * serialization.
 *
 * A DDR channel (mem/ddr.hh) uses all of it: tRAS before precharge,
 * tRRD_S/tRRD_L/tFAW activate spacing, tREFI/tRFC refresh, and a
 * separate write queue with drain hysteresis.  An HMC vault uses none
 * of those.  Table 2 of the paper gives it only tCL = tRCD = tRP =
 * 13.75 ns, 16 banks per vault, and 64 TSVs per vault at 2 Gb/s
 * (16 GB/s of vertical bandwidth per vault).
 */

#ifndef PEISIM_MEM_DRAM_HH
#define PEISIM_MEM_DRAM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_map.hh"
#include "mem/backend.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/** Timing/geometry knobs of the per-vault DRAM model. */
struct DramConfig
{
    double tCL_ns = 13.75;  ///< column access latency
    double tRCD_ns = 13.75; ///< row activate latency
    double tRP_ns = 13.75;  ///< precharge latency
    std::uint64_t row_bytes = 8192; ///< row-buffer size per bank
    unsigned banks_per_vault = 16;
    /** Vertical (TSV) bandwidth per vault, GB/s. */
    double tsv_gbps = 16.0;

    bool operator==(const DramConfig &) const = default;
};

/**
 * Timing and queue organization of one DramController, in ticks.
 * When rrd_s, rrd_l and faw are all zero there are no activate
 * limits; a zero refi means no refresh.
 */
struct DramTiming
{
    unsigned bank_groups = 1;
    unsigned banks_per_group = 1;
    Ticks cl = 0, rcd = 0, rp = 0;
    Ticks ras = 0;              ///< min row-open time before precharge
    Ticks rrd_s = 0, rrd_l = 0; ///< activate spacing, other/same group
    Ticks faw = 0;              ///< rolling four-activate window
    Ticks refi = 0, rfc = 0;    ///< refresh interval, refresh cycle
    Ticks burst = 0;            ///< one block over the data bus
    /**
     * Writes wait in their own queue.  They are served when no read
     * is waiting, and ahead of reads while the queue drains from
     * write_drain_high down to write_drain_low.  Otherwise writes
     * join the read queue, and one FR-FCFS queue serves both in
     * arrival order.
     */
    bool write_queue = false;
    unsigned write_drain_low = 0;
    unsigned write_drain_high = 0;
};

/**
 * One DRAM bank controller.  Requests are scheduled FR-FCFS: among
 * queued requests that can start now, the oldest row hit wins, else
 * the oldest request.  With a write queue, reads have priority until
 * it reaches the high watermark; writes then drain to the low one.
 *
 * Each queue keeps one FIFO per bank and, per bank, the number of
 * its requests to that bank's open row, so a pick visits the busy
 * banks rather than every queued request.  Within one bank every row
 * hit starts at max(now, free_at) and every miss shares one start
 * that is never earlier, so a bank offers at most two candidates: its
 * oldest hit and its FIFO head.
 */
class DramController : public MemPort
{
  public:
    /**
     * Stats register under "<unit><id>." (e.g. "vault3.", "chan0.");
     * @p unit must outlive the controller (a string literal).  At
     * most 64 banks (bank_groups * banks_per_group).
     */
    DramController(EventQueue &eq, const DramTiming &t, const AddrMap &map,
                   const char *unit, unsigned id, StatRegistry &stats);

    // Stats, the audit and pending events hold `this`.
    DramController(const DramController &) = delete;
    DramController &operator=(const DramController &) = delete;

    /**
     * Timing access to the block containing @p paddr.  @p cb fires
     * when read data is available on the controller side / the write
     * has been committed to the row buffer.
     */
    void accessBlock(Addr paddr, bool is_write, Callback cb) override;

    unsigned globalId() const override { return id; }

    std::uint64_t reads() const { return stat_reads.value(); }
    std::uint64_t writes() const { return stat_writes.value(); }
    std::uint64_t activates() const { return stat_activates.value(); }
    std::uint64_t rowHits() const { return stat_row_hits.value(); }

    /** Retry-event accounting (scheduler wakeup hygiene). */
    std::uint64_t retryArms() const { return stat_retry_arms.value(); }
    std::uint64_t retryFires() const { return stat_retry_fires.value(); }
    std::uint64_t retryStale() const { return stat_retry_stale.value(); }

  private:
    struct Bank
    {
        std::int64_t open_row = -1;
        Tick free_at = 0;
        Tick ras_ready_at = 0; ///< earliest precharge of the open row
    };

    /** A queued request, linked into its bank's FIFO. */
    struct Request
    {
        std::uint64_t seq; ///< arrival order: FR-FCFS age
        std::uint64_t row;
        std::uint32_t next; ///< next request of the bank's FIFO
        bool is_write;
        Callback cb;
    };

    /** 64-slot chunks keep a lightly loaded vault's pool small; a
     *  deeper queue adds chunks. */
    using Pool = SlotPool<Request, 6>;
    using Handle = Pool::Handle;

    /** One request queue: a FIFO of pool records per bank. */
    struct Queue
    {
        struct Fifo
        {
            Handle head = Pool::npos;
            Handle tail = Pool::npos;
            /** Queued requests to the bank's open row. */
            unsigned open_row_reqs = 0;
        };

        std::vector<Fifo> fifos;
        std::uint64_t busy = 0; ///< bit b: fifos[b] is non-empty
        unsigned size = 0;
    };

    /**
     * Earliest tick a row miss on bank @p b could issue given bank
     * and activate windows; every miss of a bank shares it.  On a row
     * conflict the activate happens tRP after the returned start tick
     * (precharge first), so tRRD_S/tRRD_L/tFAW gate the *projected
     * activate tick*, not the start tick — issue() places the
     * activate at start + tRP with the same projection.
     */
    Tick missStart(unsigned b, Tick now) const;
    void advanceRefresh(Tick now);
    /** Unlink request @p h, which follows @p prev in bank @p b's
     *  FIFO of @p q, and issue it. */
    void issue(Queue &q, unsigned b, Handle h, Handle prev, Tick now);
    /** Re-count both queues' requests to bank @p b's open row. */
    void recountOpenRow(unsigned b);
    void trySchedule();
    void armRetry(Tick when);

    /** The queue the policy serves next (reads unless draining). */
    Queue &activeQueue();

    unsigned groupOf(unsigned bank) const
    {
        return bank / t.banks_per_group;
    }

    bool isOpenRow(unsigned b, std::uint64_t row) const
    {
        return banks[b].open_row == static_cast<std::int64_t>(row);
    }

    EventQueue &eq;
    const DramTiming t;
    /**
     * Zero activate limits are no limits.  Tracking them anyway would
     * keep activates in issue order: a first-touch activate on an
     * idle bank would wait for an earlier conflict's projected one.
     */
    const bool limit_acts;
    const AddrMap &map;
    const char *unit;
    unsigned id;

    Pool requests;
    Queue read_q;
    Queue write_q;
    std::uint64_t next_seq = 0;
    std::vector<Bank> banks;
    /** The last four activate ticks (tFAW); once full, the oldest
     *  sits at act_next. */
    std::array<Tick, 4> act_ring{};
    unsigned act_next = 0;
    unsigned act_count = 0; ///< activates in act_ring, at most 4
    std::vector<Tick> group_last_act;
    Tick any_last_act = 0;
    Tick bus_free_at = 0;
    Tick next_refresh;
    bool draining = false;
    bool retry_armed = false;
    Tick retry_at = max_tick;

    /**
     * Re-arming the retry earlier than a pending one abandons the
     * later event in the queue; the generation counter lets the
     * abandoned event recognize it is stale and no-op instead of
     * waking the scheduler spuriously.
     */
    std::uint64_t retry_gen = 0;

    Counter stat_reads;
    Counter stat_writes;
    Counter stat_activates;
    Counter stat_row_hits;
    Counter stat_refreshes;
    Counter stat_retry_arms;
    Counter stat_retry_fires;
    Counter stat_retry_stale;
    Histogram hist_queue_depth;
};

/**
 * One vault: a vertical DRAM partition with its own controller on
 * the logic die.  No activate limits, no refresh, one request queue.
 */
class Vault : public DramController
{
  public:
    Vault(EventQueue &eq, const DramConfig &cfg, const AddrMap &map,
          unsigned global_id, StatRegistry &stats);
};

} // namespace pei

#endif // PEISIM_MEM_DRAM_HH
