#include "shard/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "partition/plan.h"

namespace ps2 {

namespace {

// Remaps a term id minted against `from` onto the fabric vocabulary `to`.
// Every term that ever reached a WAL or checkpoint carries its string, so
// the string is the cross-shard identity; ids whose string is unknown
// (never materialized in `from`) are kept verbatim — they can only come
// from positional codecs whose ids agree by construction.
TermId RemapTerm(TermId t, const Vocabulary& from, Vocabulary& to) {
  if (t >= from.size()) return t;
  const std::string& s = from.TermString(t);
  if (s.empty()) return t;
  return to.Intern(s);
}

STSQuery RemapQuery(const STSQuery& q, const Vocabulary& from,
                    Vocabulary& to) {
  STSQuery out;
  out.id = q.id;
  out.region = q.region;
  out.cls = q.cls;
  out.tau = q.tau;
  out.k = q.k;
  std::vector<std::vector<TermId>> clauses;
  clauses.reserve(q.expr.clauses().size());
  for (const auto& clause : q.expr.clauses()) {
    std::vector<TermId> mapped;
    mapped.reserve(clause.size());
    for (const TermId t : clause) mapped.push_back(RemapTerm(t, from, to));
    clauses.push_back(std::move(mapped));
  }
  out.expr = BoolExpr::Cnf(std::move(clauses));
  return out;
}

// Rebuilds a recovered plan's text routers with term ids remapped onto the
// fabric vocabulary. Routers are shared across the cells of one kdt leaf;
// preserve that sharing so the remapped plan keeps the original footprint.
PartitionPlan RemapPlan(PartitionPlan plan, const Vocabulary& from,
                        Vocabulary& to) {
  std::unordered_map<const TermRouter*, std::shared_ptr<const TermRouter>>
      remapped;
  for (CellRoute& route : plan.cells) {
    if (route.text == nullptr) continue;
    auto it = remapped.find(route.text.get());
    if (it == remapped.end()) {
      std::unordered_map<TermId, WorkerId> map;
      map.reserve(route.text->term_map().size());
      for (const auto& [t, w] : route.text->term_map()) {
        map[RemapTerm(t, from, to)] = w;
      }
      it = remapped
               .emplace(route.text.get(),
                        std::make_shared<const TermRouter>(
                            std::move(map), route.text->workers()))
               .first;
    }
    route.text = it->second;
  }
  return plan;
}

uint64_t ShardBit(ShardId s) { return uint64_t{1} << s; }

// Monotonic microseconds — the reliable links' retransmission clock.
int64_t MonoUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Backoff wait between pump rounds: until the earliest retransmission is
// due, capped so restarts/kills are noticed promptly.
void SleepUntilDue(int64_t next_due_us) {
  const int64_t now = MonoUs();
  int64_t wait = next_due_us == INT64_MAX ? 50 : next_due_us - now;
  if (wait < 1) wait = 1;
  if (wait > 2000) wait = 2000;
  std::this_thread::sleep_for(std::chrono::microseconds(wait));
}

}  // namespace

// --- ShardEgress -------------------------------------------------------------

void ShardedEngine::ShardEgress::Deliver(const MatchResult& m,
                                         int64_t publish_us) {
  WireMatch wm;
  wm.query_id = m.query_id;
  wm.object_id = m.object_id;
  wm.publish_us = publish_us;
  wm.score = m.score;
  wm.expire_us = m.expire_us;
  owner_->ShipMatches(shard_, EncodeMatchBatchFrame(&wm, 1));
}

void ShardedEngine::ShardEgress::DeliverBatch(const Delivery* pending,
                                              size_t n) {
  if (n == 0) return;
  std::vector<WireMatch> wire(n);
  for (size_t i = 0; i < n; ++i) {
    wire[i].query_id = pending[i].query_id;
    wire[i].object_id = pending[i].object_id;
    wire[i].publish_us = pending[i].publish_us;
    wire[i].score = pending[i].score;
    wire[i].expire_us = pending[i].expire_us;
  }
  owner_->ShipMatches(shard_,
                      EncodeMatchBatchFrame(wire.data(), wire.size()));
}

// --- construction / bootstrap ------------------------------------------------

ShardedEngine::ShardedEngine(ShardedEngineConfig config, Vocabulary* vocab,
                             DeliverySink* front_sink, Transport* transport)
    : config_(std::move(config)),
      vocab_(vocab),
      front_sink_(front_sink),
      balancer_(config_.fabric.rebalance_sigma) {
  if (config_.fabric.num_shards < 1) config_.fabric.num_shards = 1;
  if (config_.fabric.num_shards > 64) config_.fabric.num_shards = 64;
  if (transport == nullptr) transport = config_.fabric.transport;
  if (transport != nullptr) {
    transport_ = transport;
  } else {
    owned_transport_ = std::make_unique<LoopbackTransport>();
    transport_ = owned_transport_.get();
  }
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  transport_->RegisterEndpoint(
      kFrontEndpoint, [this](ShardId from, const std::string& frame) {
        FrontReceive(from, frame);
      });
}

ShardedEngine::~ShardedEngine() {
  if (started_) Stop();
}

void ShardedEngine::Bootstrap(const WorkloadSample& sample) {
  if (bootstrapped()) return;
  // Same plan construction as the single-engine facade: every shard indexes
  // against the identical plan, so cell ownership is the only thing that
  // distinguishes them.
  PartitionPlan plan = EngineHost::BuildPlan(config_.partitioner, sample,
                                             *vocab_, config_.partition);
  map_ = std::make_unique<ShardMapPublisher>(
      ShardMap::Uniform(plan.grid.NumCells(), config_.fabric.num_shards));
  StandUpShards(std::move(plan), config_.fabric.num_shards);
  // Every shard gets a copy of the plan (CellRoute text routers are
  // shared_ptr, so the copies share the heavy term maps).
  for (auto& shard : shards_) shard->host->Bootstrap(base_plan_);

  if (config_.durability.enabled && !config_.durability.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.durability.dir, ec);
    durable_root_ =
        !ec && WriteShardMapFile(ShardMapPath(config_.durability.dir),
                                 *map_->Current());
    if (durable_root_) {
      for (auto& shard : shards_) {
        shard->host->InitDurability(ShardDurability(shard->id), 1, 1);
      }
    }
  }
}

void ShardedEngine::StandUpShards(PartitionPlan plan, int num_shards) {
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  // Keep the bootstrap geometry: a non-durable shard restarts onto it (the
  // query set is re-sent from the front registries).
  base_plan_ = std::move(plan);
  cell_queries_.assign(base_plan_.grid.NumCells(), {});
  cell_objects_.assign(base_plan_.grid.NumCells(), 0);
  supervisor_.SetPolicy(SupervisorPolicy{config_.fabric.max_restarts});
  supervisor_.Resize(static_cast<size_t>(num_shards));
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->id = static_cast<ShardId>(i);
    NewIncarnation(*shard);
    // Distinct jitter streams per shard and direction so a fleet under the
    // same fault schedule never retries in lockstep.
    const uint64_t seed = config_.fabric.link_seed +
                          0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(i) + 1);
    shard->ctl_out.Configure(config_.fabric.retry, seed);
    shard->match_out.Configure(config_.fabric.retry, seed ^ 0xA5A5A5A5ULL);
    Shard* raw = shard.get();
    transport_->RegisterEndpoint(
        shard->id, [this, raw](ShardId from, const std::string& frame) {
          ShardReceive(*raw, from, frame);
        });
    shards_.push_back(std::move(shard));
  }
}

void ShardedEngine::NewIncarnation(Shard& shard) {
  shard.host.reset();
  shard.egress = std::make_unique<ShardEgress>(this, shard.id,
                                               config_.dedup_window_capacity);
  EngineHost::Options options;
  options.cluster = config_.cluster;
  options.window_capacity = config_.engine.window_capacity;
  shard.host =
      std::make_unique<EngineHost>(options, vocab_, shard.egress.get());
}

DurabilityConfig ShardedEngine::ShardDurability(ShardId s) const {
  DurabilityConfig config = config_.durability;
  config.dir = ShardDirPath(config_.durability.dir, s);
  // Shard checkpoints never embed the routing snapshot.
  config.include_snapshot = false;
  return config;
}

// --- restore -----------------------------------------------------------------

bool ShardedEngine::Restore(const std::string& dir, Recovery* out) {
  if (bootstrapped() || dir.empty()) return false;
  ShardMap disk_map;
  if (!ReadShardMapFile(ShardMapPath(dir), &disk_map)) return false;

  std::vector<std::unique_ptr<RecoveredState>> states;
  states.reserve(static_cast<size_t>(disk_map.num_shards));
  for (int i = 0; i < disk_map.num_shards; ++i) {
    auto state = std::make_unique<RecoveredState>();
    if (!RecoverState(ShardDirPath(dir, static_cast<ShardId>(i)),
                      state.get())) {
      return false;
    }
    states.push_back(std::move(state));
  }

  // Shard 0's recovered vocabulary becomes the fabric's; the other shards'
  // queries and plans are remapped onto it by term string (ids minted by
  // WAL replay after the last checkpoint can differ per shard).
  *vocab_ = std::move(states[0]->vocab);

  config_.durability.enabled = true;
  config_.durability.dir = dir;
  map_ = std::make_unique<ShardMapPublisher>(disk_map);
  durable_root_ = true;

  Recovery recovery;
  StandUpShards(states[0]->plan, disk_map.num_shards);
  for (int i = 0; i < disk_map.num_shards; ++i) {
    Shard& shard = *shards_[static_cast<size_t>(i)];
    RecoveredState& state = *states[static_cast<size_t>(i)];
    if (i > 0) {
      // Shard i runs its own recovered plan and queries, remapped to the
      // fabric vocabulary (installed in-shard migrations may differ per
      // shard).
      state.plan = RemapPlan(std::move(state.plan), state.vocab, *vocab_);
      for (STSQuery& q : state.queries) {
        q = RemapQuery(q, state.vocab, *vocab_);
      }
    }
    for (const STSQuery& q : state.queries) {
      shard.applied.insert(q.id);
      auto it = queries_.find(q.id);
      if (it == queries_.end()) {
        RegisterPlacement(q, ShardBit(shard.id));
      } else {
        query_shards_[q.id] |= ShardBit(shard.id);
      }
    }
    if (!shard.host->Recover(state, ShardDurability(shard.id))) {
      // A shard that recovered but cannot log again would silently lose
      // every post-restore mutation; fail the whole fleet restore.
      shards_.clear();
      queries_.clear();
      query_shards_.clear();
      map_.reset();
      durable_root_ = false;
      return false;
    }
    recovery.next_query_id =
        std::max(recovery.next_query_id, state.next_query_id);
    recovery.next_object_id =
        std::max(recovery.next_object_id, state.next_object_id);
    // Every shard carries the same front-level top-k snapshot; adopt the
    // freshest copy (a quarantined shard may have missed the last
    // checkpoint round).
    if (!state.topk.empty() &&
        (recovery.topk.empty() ||
         state.topk.watermark_us > recovery.topk.watermark_us)) {
      recovery.topk = std::move(state.topk);
    }
  }

  recovery.queries.reserve(queries_.size());
  for (const auto& [id, q] : queries_) recovery.queries.push_back(q);
  recovery.shardmap_version = disk_map.version;
  if (out != nullptr) *out = std::move(recovery);
  return true;
}

// --- control plane -----------------------------------------------------------

void ShardedEngine::RegisterPlacement(const STSQuery& query, uint64_t mask) {
  queries_[query.id] = query;
  query_shards_[query.id] = mask;
  base_plan_.grid.CellsOverlapping(query.region, &overlap_scratch_);
  for (const CellId c : overlap_scratch_) {
    cell_queries_[c].push_back(query.id);
  }
}

void ShardedEngine::ForgetPlacement(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) return;
  base_plan_.grid.CellsOverlapping(it->second.region, &overlap_scratch_);
  for (const CellId c : overlap_scratch_) {
    auto& list = cell_queries_[c];
    list.erase(std::remove(list.begin(), list.end(), id), list.end());
  }
  queries_.erase(it);
  query_shards_.erase(id);
}

uint64_t ShardedEngine::query_shard_mask(QueryId id) const {
  auto it = query_shards_.find(id);
  return it == query_shards_.end() ? 0 : it->second;
}

Status ShardedEngine::Subscribe(const STSQuery& query) {
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  PumpDeferred();
  const auto map = map_->Current();
  base_plan_.grid.CellsOverlapping(query.region, &overlap_scratch_);
  uint64_t mask = 0;
  for (const CellId c : overlap_scratch_) mask |= ShardBit(map->OwnerOf(c));
  if (mask == 0 && !shards_.empty()) mask = ShardBit(0);
  // Refuse up-front when any owner is quarantined: a partially indexed
  // query would silently miss matches in the quarantined cells.
  for (const auto& shard : shards_) {
    if ((mask & ShardBit(shard->id)) && supervisor_.quarantined(shard->id)) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("query region overlaps quarantined shard " +
                                 std::to_string(shard->id));
    }
  }
  RegisterPlacement(query, mask);
  const std::string frame = EncodeQueryFrame(FrameKind::kQueryInsert, query);
  for (const auto& shard : shards_) {
    if (!(mask & ShardBit(shard->id))) continue;
    const Status st = SendControl(shard->id, frame);
    if (st.ok()) continue;
    // An owner died past its restart budget mid-placement: roll back with
    // best-effort deletes at the owners already reached, then report.
    const std::string del =
        EncodeQueryFrame(FrameKind::kQueryDelete, query);
    for (const auto& prev : shards_) {
      if (prev->id >= shard->id) break;
      if ((mask & ShardBit(prev->id)) &&
          !supervisor_.quarantined(prev->id)) {
        SendControl(prev->id, del);
      }
    }
    ForgetPlacement(query.id);
    return st;
  }
  return Status::Ok();
}

Status ShardedEngine::Unsubscribe(QueryId id) {
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  PumpDeferred();
  auto it = queries_.find(id);
  if (it == queries_.end()) return Status::Ok();
  const uint64_t mask = query_shards_[id];
  const std::string frame =
      EncodeQueryFrame(FrameKind::kQueryDelete, it->second);
  ForgetPlacement(id);
  size_t live = 0, quarantined = 0;
  Status worst = Status::Ok();
  for (const auto& shard : shards_) {
    if (!(mask & ShardBit(shard->id))) continue;
    if (supervisor_.quarantined(shard->id)) {
      // The copy dies with the shard (its index is gone); nothing to send.
      ++quarantined;
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ++live;
    const Status st = SendControl(shard->id, frame);
    if (!st.ok() && worst.ok()) worst = st;
  }
  if (live == 0 && quarantined > 0) {
    return Status::Unavailable("every owner of query " + std::to_string(id) +
                               " is quarantined");
  }
  return worst;
}

Status ShardedEngine::Update(const STSQuery& old_query,
                             const STSQuery& new_query) {
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  PumpDeferred();
  const auto map = map_->Current();
  const GridSpec& grid = base_plan_.grid;
  grid.CellsOverlapping(old_query.region, &overlap_scratch_);
  uint64_t old_mask = 0;
  for (const CellId c : overlap_scratch_) {
    old_mask |= ShardBit(map->OwnerOf(c));
  }
  if (old_mask == 0 && !shards_.empty()) old_mask = ShardBit(0);
  grid.CellsOverlapping(new_query.region, &overlap_scratch_);
  uint64_t new_mask = 0;
  for (const CellId c : overlap_scratch_) {
    new_mask |= ShardBit(map->OwnerOf(c));
  }
  if (new_mask == 0 && !shards_.empty()) new_mask = ShardBit(0);

  // Refuse up-front when any owner of either placement is quarantined: a
  // half-applied move would either leak the old placement or miss matches
  // in the new region.
  for (const auto& shard : shards_) {
    if (((old_mask | new_mask) & ShardBit(shard->id)) &&
        supervisor_.quarantined(shard->id)) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "subscription update touches quarantined shard " +
          std::to_string(shard->id));
    }
  }

  ForgetPlacement(old_query.id);
  RegisterPlacement(new_query, new_mask);
  Status worst = Status::Ok();
  for (const auto& shard : shards_) {
    const uint64_t bit = ShardBit(shard->id);
    const bool had_old = (old_mask & bit) != 0;
    const bool has_new = (new_mask & bit) != 0;
    Status st = Status::Ok();
    if (had_old && has_new) {
      st = SendControl(shard->id,
                       EncodeQueryUpdateFrame(new_query, old_query.region));
    } else if (has_new) {
      st = SendControl(shard->id,
                       EncodeQueryFrame(FrameKind::kQueryInsert, new_query));
    } else if (had_old) {
      st = SendControl(shard->id,
                       EncodeQueryFrame(FrameKind::kQueryDelete, old_query));
    }
    if (!st.ok() && worst.ok()) worst = st;
  }
  return worst;
}

Status ShardedEngine::Post(const SpatioTextualObject& object,
                           int64_t publish_us) {
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  PumpDeferred();
  const auto map = map_->Current();
  const CellId cell = base_plan_.grid.CellOf(object.loc);
  const ShardId owner = map->OwnerOf(cell);
  if (supervisor_.quarantined(owner)) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("cell owner shard " + std::to_string(owner) +
                               " is quarantined");
  }
  if (cell < cell_objects_.size()) ++cell_objects_[cell];
  Status st = SendControl(owner, EncodeObjectFrame(object, publish_us));
  if (!st.ok()) return st;
  if (!started_) {
    // Sync contract: the object's matches are at the front before Post
    // returns, even when the transport dropped the first copies.
    st = FlushEgress(owner);
    if (!st.ok()) return st;
  }
  if (config_.fabric.health_probe_interval > 0 &&
      ++posts_since_probe_ >= config_.fabric.health_probe_interval) {
    posts_since_probe_ = 0;
    CheckHealth();  // degradations handled inside (restart/quarantine)
  }
  if (config_.fabric.auto_rebalance &&
      ++posts_since_rebalance_ >= config_.fabric.rebalance_check_interval) {
    posts_since_rebalance_ = 0;
    MaybeRebalance();
  }
  return Status::Ok();
}

void ShardedEngine::SendToShard(ShardId shard, const std::string& frame) {
  if (!transport_->Send(kFrontEndpoint, shard, frame)) {
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- reliable-link plumbing --------------------------------------------------

Status ShardedEngine::SendControl(ShardId s, std::string inner) {
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  if (supervisor_.quarantined(s)) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("shard " + std::to_string(s) +
                               " is quarantined");
  }
  Shard& shard = *shards_[static_cast<size_t>(s)];
  {
    std::lock_guard<std::mutex> lock(shard.ctl_mu);
    shard.ctl_out.Enqueue(std::move(inner));
  }
  return FlushControl(s);
}

Status ShardedEngine::FlushControl(ShardId s) {
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  Shard& shard = *shards_[static_cast<size_t>(s)];
  while (true) {
    if (supervisor_.quarantined(s)) {
      return Status::Unavailable("shard " + std::to_string(s) +
                                 " is quarantined");
    }
    PumpDeferred();
    std::vector<ReliableSender::Outgoing> due;
    bool exhausted = false;
    int64_t next_due = INT64_MAX;
    {
      std::lock_guard<std::mutex> lock(shard.ctl_mu);
      if (shard.ctl_out.unacked() == 0) {
        // Acked traffic: the shard is alive; clear its failure streak.
        supervisor_.OnProgress(s);
        return Status::Ok();
      }
      shard.ctl_out.CollectDue(MonoUs(), &due);
      exhausted = shard.ctl_out.exhausted();
      next_due = shard.ctl_out.next_due_us();
    }
    if (exhausted) {
      // Missed the ack deadline through the whole retry budget: the
      // fabric's failure detector. Restart (then retry: Reset re-queued
      // everything under the new epoch) or bubble the quarantine.
      const Status st = HandleShardFailure(s);
      if (!st.ok()) return st;
      continue;
    }
    for (ReliableSender::Outgoing& o : due) {
      if (o.is_retry) frame_retries_.fetch_add(1, std::memory_order_relaxed);
      if (!transport_->Send(kFrontEndpoint, s, o.envelope)) {
        transport_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (due.empty()) SleepUntilDue(next_due);
  }
}

Status ShardedEngine::FlushEgress(ShardId s) {
  Shard& shard = *shards_[static_cast<size_t>(s)];
  while (true) {
    PumpDeferred();
    if (shard.dead.load(std::memory_order_acquire) ||
        supervisor_.quarantined(s)) {
      // The producer is gone; salvage what it accepted (dedup-safe).
      LocalDrainEgress(shard);
      return Status::Ok();
    }
    std::vector<ReliableSender::Outgoing> due;
    bool exhausted = false;
    int64_t next_due = INT64_MAX;
    {
      std::lock_guard<std::mutex> lock(shard.egress_mu);
      if (shard.match_out.unacked() == 0) return Status::Ok();
      shard.match_out.CollectDue(MonoUs(), &due);
      exhausted = shard.match_out.exhausted();
      next_due = shard.match_out.next_due_us();
    }
    if (exhausted) {
      // The in-process front stopped acking — the transport ate every
      // attempt. Deliver locally rather than lose accepted matches.
      LocalDrainEgress(shard);
      return Status::Ok();
    }
    for (ReliableSender::Outgoing& o : due) {
      if (o.is_retry) frame_retries_.fetch_add(1, std::memory_order_relaxed);
      if (!transport_->Send(shard.id, kFrontEndpoint, o.envelope)) {
        transport_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (due.empty()) SleepUntilDue(next_due);
  }
}

void ShardedEngine::EnqueueEgress(Shard& shard, std::string inner) {
  std::vector<ReliableSender::Outgoing> due;
  {
    std::lock_guard<std::mutex> lock(shard.egress_mu);
    shard.match_out.Enqueue(std::move(inner));
    // A dead shard can't transmit; the frame pends for salvage/replay.
    if (!shard.dead.load(std::memory_order_acquire)) {
      shard.match_out.CollectDue(MonoUs(), &due);
    }
  }
  for (ReliableSender::Outgoing& o : due) {
    if (o.is_retry) frame_retries_.fetch_add(1, std::memory_order_relaxed);
    if (!transport_->Send(shard.id, kFrontEndpoint, o.envelope)) {
      transport_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ShardedEngine::ShipMatches(ShardId s, std::string frame) {
  EnqueueEgress(*shards_[static_cast<size_t>(s)], std::move(frame));
}

void ShardedEngine::PumpDeferred() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    while (true) {
      std::string frame;
      {
        std::lock_guard<std::mutex> lock(shard.deferred_mu);
        if (shard.deferred.empty()) break;
        frame = std::move(shard.deferred.front());
        shard.deferred.pop_front();
      }
      if (shard.dead.load(std::memory_order_acquire)) continue;
      Frame f;
      if (!DecodeFrame(frame, &f)) {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (f.enveloped) AcceptControl(shard, std::move(f));
    }
  }
}

void ShardedEngine::LocalDrainEgress(Shard& shard) {
  std::vector<std::string> inners;
  {
    std::lock_guard<std::mutex> lock(shard.egress_mu);
    inners = shard.match_out.TakeInners();
  }
  for (const std::string& inner : inners) {
    Frame f;
    if (!DecodeFrame(inner, &f)) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Copies that did reach the front die in its dedup window / the
    // drain-token max.
    ApplyFromShard(f);
  }
}

// --- supervision -------------------------------------------------------------

Status ShardedEngine::HandleShardFailure(ShardId s) {
  Shard& shard = *shards_[static_cast<size_t>(s)];
  while (true) {
    if (!supervisor_.OnFailure(s)) {
      QuarantineShard(s);
      return Status::Unavailable(
          "shard " + std::to_string(s) +
          " quarantined after repeated restart failures");
    }
    shard_restarts_.fetch_add(1, std::memory_order_relaxed);
    if (RestartShard(shard)) {
      supervisor_.OnRestart(s);
      return Status::Ok();
    }
  }
}

bool ShardedEngine::RestartShard(Shard& shard) {
  if (shard.permanently_failed) return false;
  // 1. Tear down the dead incarnation (no graceful drain to wait on; the
  //    WAL closes cleanly so step 4 recovers everything it journaled).
  shard.host->Halt();
  // 2. Salvage matches it accepted but never got acked for — the recovery
  //    guarantee that makes kill+restart invisible to exact equivalence.
  LocalDrainEgress(shard);
  // 3. Stale parked frames describe the dead incarnation's links.
  {
    std::lock_guard<std::mutex> lock(shard.deferred_mu);
    shard.deferred.clear();
  }

  // 4. Rebuild the index in a fresh incarnation: from the shard's own
  //    durable directory when the fabric is durable, from the bootstrap
  //    geometry otherwise (queries are restored by the registry resync
  //    below either way).
  NewIncarnation(shard);
  const uint64_t bit = ShardBit(shard.id);
  shard.applied.clear();
  RecoveredState state;
  if (durable_root_ &&
      RecoverState(ShardDirPath(config_.durability.dir, shard.id), &state)) {
    state.plan = RemapPlan(std::move(state.plan), state.vocab, *vocab_);
    std::vector<STSQuery> placed;
    for (const STSQuery& rq : state.queries) {
      // Skip queries the front unsubscribed (or migrated away) while the
      // shard was down — their delete frames may be gone for good.
      auto it = query_shards_.find(rq.id);
      if (it == query_shards_.end() || !(it->second & bit)) continue;
      placed.push_back(RemapQuery(rq, state.vocab, *vocab_));
      shard.applied.insert(rq.id);
    }
    state.queries = std::move(placed);
    // A shard that cannot log again still serves, non-durable.
    shard.host->Recover(state, ShardDurability(shard.id));
  } else {
    shard.host->Bootstrap(base_plan_);
  }

  // 5. Reconcile: queries the registry places here that the rebuilt index
  //    lacks are the link's state-sync prologue, applied before any
  //    replayed in-flight frame.
  std::vector<std::string> sync;
  for (const auto& [id, mask] : query_shards_) {
    if (!(mask & bit) || shard.applied.count(id) != 0) continue;
    sync.push_back(EncodeQueryFrame(FrameKind::kQueryInsert, queries_[id]));
  }

  // 6. Fence both links under a fresh epoch; unacked control frames replay
  //    after the prologue, the match link restarts clean (step 2 salvaged
  //    its backlog).
  ++shard.link_epoch;
  {
    std::lock_guard<std::mutex> lock(shard.ctl_mu);
    shard.ctl_out.Reset(shard.link_epoch, std::move(sync));
    shard.ctl_in.Reset(shard.link_epoch);
  }
  {
    std::lock_guard<std::mutex> lock(shard.egress_mu);
    shard.match_out.Reset(shard.link_epoch, {});
  }
  {
    std::lock_guard<std::mutex> lock(shard.ingress_mu);
    shard.match_in.Reset(shard.link_epoch);
  }

  // 7. Back to life.
  shard.dead.store(false, std::memory_order_release);
  if (started_) shard.host->Start(config_.engine);
  return true;
}

void ShardedEngine::QuarantineShard(ShardId s) {
  Shard& shard = *shards_[static_cast<size_t>(s)];
  supervisor_.Quarantine(s);
  quarantine_events_.fetch_add(1, std::memory_order_relaxed);
  shard.dead.store(true, std::memory_order_release);
  shard.host->Halt();
  // Accepted matches still get out; queued control frames die with the
  // shard (the caller's status reports the loss).
  LocalDrainEgress(shard);
  {
    std::lock_guard<std::mutex> lock(shard.ctl_mu);
    frames_dropped_.fetch_add(shard.ctl_out.unacked(),
                              std::memory_order_relaxed);
    shard.ctl_out.TakeInners();
  }
  {
    std::lock_guard<std::mutex> lock(shard.deferred_mu);
    shard.deferred.clear();
  }
}

Status ShardedEngine::CheckHealth() {
  Status dur = durability_status();
  if (!dur.ok()) return dur;
  Status worst = Status::Ok();
  for (const auto& shard : shards_) {
    if (supervisor_.quarantined(shard->id)) {
      if (worst.ok()) {
        worst = Status::Unavailable("shard " + std::to_string(shard->id) +
                                    " is quarantined");
      }
      continue;
    }
    const Status st = SendControl(shard->id, EncodePingFrame());
    if (!st.ok() && worst.ok()) worst = st;
  }
  return worst;
}

void ShardedEngine::KillShard(ShardId s, bool allow_restart) {
  Shard& shard = *shards_[static_cast<size_t>(s)];
  shard.dead.store(true, std::memory_order_release);
  shard.permanently_failed = !allow_restart;
  // Crash semantics: unwritten WAL batch is lost; on-disk state is what the
  // sync mode had already guaranteed.
  shard.host->Abort();
}

Status ShardedEngine::ReviveShard(ShardId s) {
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  Shard& shard = *shards_[static_cast<size_t>(s)];
  shard.permanently_failed = false;
  supervisor_.Clear(s);
  shard_restarts_.fetch_add(1, std::memory_order_relaxed);
  if (!RestartShard(shard)) {
    supervisor_.Quarantine(s);
    return Status::Internal("shard " + std::to_string(s) +
                            " could not be revived");
  }
  supervisor_.OnRestart(s);
  // Push the state-sync prologue now so the shard is consistent before the
  // next organic control frame.
  return FlushControl(s);
}

Status ShardedEngine::durability_status() const {
  for (const auto& shard : shards_) {
    DurabilityManager* durability = shard->host->durability();
    if (durability != nullptr && !durability->healthy()) {
      return Status::DataLoss("shard " + std::to_string(shard->id) +
                              " WAL hit a sticky I/O error");
    }
  }
  return Status::Ok();
}

FabricFaultStats ShardedEngine::fault_stats() const {
  FabricFaultStats s;
  s.transport_errors = transport_errors_.load(std::memory_order_relaxed);
  s.frame_retries = frame_retries_.load(std::memory_order_relaxed);
  s.frame_redeliveries =
      frame_redeliveries_.load(std::memory_order_relaxed);
  s.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
  s.dup_suppressed = dup_suppressed_.load(std::memory_order_relaxed);
  s.shard_restarts = shard_restarts_.load(std::memory_order_relaxed);
  s.shards_quarantined =
      quarantine_events_.load(std::memory_order_relaxed);
  return s;
}

// --- transport receive paths -------------------------------------------------

void ShardedEngine::ShardReceive(Shard& shard, ShardId from,
                                 const std::string& frame) {
  (void)from;
  // A dead shard is a dead process: everything addressed to it vanishes
  // unacked. The front's retry budget is the detector.
  if (shard.dead.load(std::memory_order_acquire)) return;
  Frame f;
  if (!DecodeFrame(frame, &f)) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (f.kind == FrameKind::kAck) {
    // The front acking this shard's match link.
    std::lock_guard<std::mutex> lock(shard.egress_mu);
    shard.match_out.Ack(f.epoch, f.ack_upto);
    return;
  }
  if (!f.enveloped) {
    // Raw control frames no longer travel the fabric.
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Ordered release must happen on the facade thread (the engines'
  // single-producer contract); a frame the transport released elsewhere —
  // a matured delayed hold-back inside a worker's Send — is parked for the
  // facade thread's next pump.
  if (std::this_thread::get_id() !=
      control_thread_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(shard.deferred_mu);
    shard.deferred.push_back(frame);
    return;
  }
  AcceptControl(shard, std::move(f));
}

void ShardedEngine::AcceptControl(Shard& shard, Frame&& f) {
  ReliableReceiver::Result r = shard.ctl_in.Accept(std::move(f));
  if (r.stale) return;
  if (r.duplicate) {
    frame_redeliveries_.fetch_add(1, std::memory_order_relaxed);
  }
  for (Frame& released : r.apply) ApplyControl(shard, released);
  // Apply-before-ack, cumulative; duplicates are re-acked so the front
  // stops retrying a frame whose first ack got lost.
  if (!transport_->Send(shard.id, kFrontEndpoint,
                        EncodeAckFrame(r.epoch, r.ack_upto))) {
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardedEngine::ApplyControl(Shard& shard, Frame& f) {
  switch (f.kind) {
    case FrameKind::kDrain:
      // Flush barrier: everything submitted before the marker is fully
      // processed (including match handoff) before the ack token travels
      // back on the match link — behind every match it must trail.
      if (shard.host->started()) shard.host->engine()->Quiesce();
      EnqueueEgress(shard,
                    EncodeDrainFrame(FrameKind::kDrainAck, f.drain_token));
      return;
    case FrameKind::kPing:
      return;  // the ack is the answer
    default:
      ShardApply(shard, f);
      return;
  }
}

void ShardedEngine::ShardApply(Shard& shard, const Frame& f) {
  // The host journals each mutation to this shard's own log before applying
  // it, so the copy phase of a cross-shard migration is durable the same way
  // a fresh subscribe is. The applied set makes redelivery idempotent: a
  // restart replays every unacked frame.
  EngineHost& host = *shard.host;
  switch (f.kind) {
    case FrameKind::kObject:
      host.Post(f.object, f.publish_us);
      return;
    case FrameKind::kQueryInsert:
      // An insert that already landed (its ack was the casualty) must not
      // double-index.
      if (!shard.applied.insert(f.query.id).second) return;
      host.Subscribe(f.query);
      return;
    case FrameKind::kQueryUpdate: {
      // Delete-then-insert under one frame. Redelivery converges — the
      // delete of an already-moved placement is a partial no-op and the
      // re-insert lands on the same slot.
      const bool had = !shard.applied.insert(f.query.id).second;
      host.Update(f.query, had ? &f.old_region : nullptr);
      return;
    }
    case FrameKind::kQueryDelete:
      // Same idempotency in reverse: deleting a query this incarnation
      // never indexed is a no-op (it was reconciled away at restart).
      if (shard.applied.erase(f.query.id) == 0) return;
      host.Unsubscribe(f.query);
      return;
    default:
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
  }
}

void ShardedEngine::FrontReceive(ShardId from, const std::string& frame) {
  if (from < 0 || from >= num_shards()) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Frame f;
  if (!DecodeFrame(frame, &f)) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& shard = *shards_[static_cast<size_t>(from)];
  if (f.kind == FrameKind::kAck) {
    // The shard acking the front's control link.
    std::lock_guard<std::mutex> lock(shard.ctl_mu);
    shard.ctl_out.Ack(f.epoch, f.ack_upto);
    return;
  }
  if (!f.enveloped) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Concurrent path: worker threads of every shard land here. Sequence
  // dedup kills retransmitted copies; the DeliveryRouter's window kills
  // semantic duplicates (migration overlap, salvage replays).
  uint64_t ack_epoch = 0, ack_upto = 0;
  std::vector<Frame> apply;
  {
    std::lock_guard<std::mutex> lock(shard.ingress_mu);
    ReliableReceiver::Result r = shard.match_in.Accept(std::move(f));
    if (r.stale) return;
    if (r.duplicate) {
      frame_redeliveries_.fetch_add(1, std::memory_order_relaxed);
    }
    ack_epoch = r.epoch;
    ack_upto = r.ack_upto;
    apply = std::move(r.apply);
  }
  for (Frame& released : apply) ApplyFromShard(released);
  SendToShard(from, EncodeAckFrame(ack_epoch, ack_upto));
}

void ShardedEngine::ApplyFromShard(Frame& f) {
  switch (f.kind) {
    case FrameKind::kMatchBatch:
      for (const WireMatch& wm : f.matches) {
        MatchResult m;
        m.query_id = wm.query_id;
        m.object_id = wm.object_id;
        m.score = wm.score;
        m.expire_us = wm.expire_us;
        if (front_sink_->AcceptFresh(m.query_id, m.object_id)) {
          front_sink_->Deliver(m, wm.publish_us);
        } else {
          dup_suppressed_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return;
    case FrameKind::kDrainAck: {
      // Monotonic max: drain acks can arrive out of order on the unordered
      // match link (and replay through the salvage path).
      uint64_t cur = last_drain_ack_.load(std::memory_order_relaxed);
      while (f.drain_token > cur &&
             !last_drain_ack_.compare_exchange_weak(
                 cur, f.drain_token, std::memory_order_release,
                 std::memory_order_relaxed)) {
      }
      return;
    }
    default:
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
  }
}

// --- engines -----------------------------------------------------------------

void ShardedEngine::DataPlaneFill(uint64_t* pending,
                                  uint64_t* capacity) const {
  uint64_t p = 0, c = 0;
  for (const auto& shard : shards_) {
    uint64_t sp = 0, sc = 0;
    shard->host->DataPlaneFill(&sp, &sc);
    p += sp;
    c += sc;
  }
  *pending = p;
  *capacity = c;
}

void ShardedEngine::Start() {
  if (!bootstrapped() || started_) return;
  for (auto& shard : shards_) {
    if (supervisor_.quarantined(shard->id)) continue;
    shard->host->Start(config_.engine);
  }
  started_ = true;
}

RunReport ShardedEngine::Stop() {
  RunReport fleet;
  if (!started_) return fleet;
  control_thread_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  PumpDeferred();
  shard_reports_.clear();
  for (auto& shard : shards_) shard_reports_.push_back(shard->host->Stop());
  started_ = false;
  // Everything the engines produced on their way out still has to cross
  // the match links (retransmitting what the transport dropped).
  for (auto& shard : shards_) {
    if (shard->dead.load(std::memory_order_acquire) ||
        supervisor_.quarantined(shard->id)) {
      LocalDrainEgress(*shard);
    } else {
      FlushEgress(shard->id);
    }
  }
  PumpDeferred();
  fleet = shard_reports_[0];
  for (size_t i = 1; i < shard_reports_.size(); ++i) {
    fleet.MergeShard(shard_reports_[i]);
  }
  // The fabric's own fault tallies ride the fleet report.
  const FabricFaultStats fs = fault_stats();
  fleet.transport_errors = fs.transport_errors;
  fleet.frame_retries = fs.frame_retries;
  fleet.frame_redeliveries = fs.frame_redeliveries;
  fleet.frames_dropped = fs.frames_dropped;
  fleet.fabric_dup_suppressed = fs.dup_suppressed;
  fleet.shard_restarts = fs.shard_restarts;
  fleet.shards_quarantined = fs.shards_quarantined;
  return fleet;
}

// --- durability --------------------------------------------------------------

bool ShardedEngine::durable() const {
  if (!durable_root_) return false;
  for (const auto& shard : shards_) {
    if (supervisor_.quarantined(shard->id)) continue;
    if (!shard->host->durable()) return false;
  }
  return !shards_.empty();
}

bool ShardedEngine::Checkpoint(QueryId next_query_id,
                               ObjectId next_object_id,
                               const TopKCheckpoint* topk) {
  if (!durable_root_ || !bootstrapped()) return false;
  bool ok = true;
  for (auto& shard : shards_) {
    if (supervisor_.quarantined(shard->id)) continue;
    const uint64_t bit = ShardBit(shard->id);
    std::vector<const STSQuery*> placed;
    for (const auto& [id, q] : queries_) {
      if (query_shards_[id] & bit) placed.push_back(&q);
    }
    // The front's top-k heap state rides every shard's checkpoint so
    // restore survives the loss of any one shard directory.
    ok = shard->host->Checkpoint(next_query_id, next_object_id,
                                 std::move(placed), topk) &&
         ok;
  }
  ok = WriteShardMapFile(ShardMapPath(config_.durability.dir),
                         *map_->Current()) &&
       ok;
  return ok;
}

bool ShardedEngine::ShouldCheckpoint() const {
  for (const auto& shard : shards_) {
    if (shard->host->ShouldCheckpoint()) return true;
  }
  return false;
}

void ShardedEngine::Kill() {
  for (auto& shard : shards_) {
    shard->dead.store(true, std::memory_order_release);
    shard->host->Abort();
  }
  started_ = false;
}

// --- migration ---------------------------------------------------------------

Status ShardedEngine::DrainShard(ShardId shard) {
  const uint64_t token = next_drain_token_++;
  const Status st =
      SendControl(shard, EncodeDrainFrame(FrameKind::kDrain, token));
  if (!st.ok()) return st;
  // The marker was applied (apply-before-ack), so its ack token is already
  // queued on the match link *behind* every match produced before the
  // barrier; flushing the link until the token shows proves they all
  // reached the front.
  while (last_drain_ack_.load(std::memory_order_acquire) < token) {
    const Status flush = FlushEgress(shard);
    if (!flush.ok()) return flush;
    PumpDeferred();
  }
  return Status::Ok();
}

ShardMigrationStats ShardedEngine::MigrateCell(CellId cell, ShardId from,
                                               ShardId to) {
  ShardMigrationStats stats;
  if (!bootstrapped() || from == to) return stats;
  if (from < 0 || to < 0 || from >= num_shards() || to >= num_shards()) {
    return stats;
  }
  if (supervisor_.quarantined(from) || supervisor_.quarantined(to)) {
    return stats;
  }
  const auto map = map_->Current();
  if (map->OwnerOf(cell) != from) return stats;

  // Phase 1 — copy: the new owner gets every query indexed in the cell it
  // doesn't already hold. The shard WALs each insert before applying, so a
  // crash mid-copy recovers a harmless superset (the map still names
  // `from`; the extra copies at `to` produce no deliveries because no
  // object routes there yet). A copy that fails aborts the migration at
  // the same harmless point.
  const uint64_t to_bit = ShardBit(to);
  for (const QueryId id : cell_queries_[cell]) {
    uint64_t& mask = query_shards_[id];
    if (mask & to_bit) continue;
    const std::string frame =
        EncodeQueryFrame(FrameKind::kQueryInsert, queries_[id]);
    if (!SendControl(to, frame).ok()) return stats;
    mask |= to_bit;
    ++stats.queries_copied;
    stats.bytes += frame.size();
  }

  // Phase 2 — publish: objects for the cell now route to `to`. Persist the
  // new assignment before the source sheds anything.
  ShardMap next = *map;
  next.cell_shard[cell] = to;
  map_->Publish(std::move(next));
  if (durable_root_) {
    WriteShardMapFile(ShardMapPath(config_.durability.dir),
                      *map_->Current());
  }
  ++cells_migrated_;

  // Phase 3 — drain: flush everything in flight at the old owner. Objects
  // routed under the old map finish matching (and their matches reach the
  // front) before any source copy disappears. On failure keep the source
  // superset — correct, just unshed.
  if (!DrainShard(from).ok()) return stats;

  // Phase 4 — remove: retire source copies whose query no longer overlaps
  // any `from`-owned cell under the new map. In-flight duplicates this
  // window can still produce die in the front router's dedup window.
  const auto published = map_->Current();
  const GridSpec& grid = base_plan_.grid;
  const uint64_t from_bit = ShardBit(from);
  std::vector<QueryId> shed = cell_queries_[cell];
  for (const QueryId id : shed) {
    auto it = queries_.find(id);
    if (it == queries_.end()) continue;
    uint64_t& mask = query_shards_[id];
    if (!(mask & from_bit)) continue;
    grid.CellsOverlapping(it->second.region, &overlap_scratch_);
    bool still_needed = false;
    for (const CellId c : overlap_scratch_) {
      if (published->OwnerOf(c) == from) {
        still_needed = true;
        break;
      }
    }
    if (still_needed) continue;
    if (!SendControl(from, EncodeQueryFrame(FrameKind::kQueryDelete,
                                            it->second))
             .ok()) {
      return stats;
    }
    mask &= ~from_bit;
    ++stats.queries_removed;
  }
  return stats;
}

size_t ShardedEngine::MaybeRebalance() {
  if (!bootstrapped() || num_shards() < 2) return 0;
  const std::vector<ShardMove> moves =
      balancer_.Plan(*map_->Current(), cell_objects_,
                     config_.fabric.rebalance_max_moves);
  size_t migrated = 0;
  for (const ShardMove& move : moves) {
    if (supervisor_.quarantined(move.from) ||
        supervisor_.quarantined(move.to)) {
      continue;
    }
    const ShardMigrationStats stats =
        MigrateCell(move.cell, move.from, move.to);
    if (stats.queries_copied > 0 || stats.queries_removed > 0 ||
        map_->Current()->OwnerOf(move.cell) == move.to) {
      ++migrated;
    }
  }
  // New observation window after acting (same policy as ResetLoadWindow).
  if (!moves.empty()) {
    std::fill(cell_objects_.begin(), cell_objects_.end(), 0);
  }
  return migrated;
}

}  // namespace ps2
