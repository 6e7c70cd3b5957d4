// Open-addressing hash tables for the per-segment path.
//
// One probing core, FlatTable, over a power-of-two slot array: linear
// probing, a cached 32-bit hash in every slot and backward-shift erase, so
// there are no tombstones. A table that has grown to its working set never
// allocates again, and erases never leave probe runs longer than inserts
// made them. Growth doubles the array at 3/4 load and re-places slots from
// their cached hashes alone, without touching keys.
//
// FlatTable leaves the rest of the slot to its user: lookups take the hash
// plus an equality predicate over a slot. FlatMap stores key and value in
// the slot; tcp::ListenQueue stores only a position into its own dense
// entry array, so a probe there touches 8-byte slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tcpz {

/// Top bit of every occupied slot's cached hash; a zero hash marks an empty
/// slot. Slot indices come from the low bits, so the tag never moves a slot.
inline constexpr std::uint32_t kSlotOccupied = 0x8000'0000u;

/// Folds a 64-bit hash to the tagged 32-bit hash a slot caches.
[[nodiscard]] constexpr std::uint32_t slot_hash(std::uint64_t h) {
  return static_cast<std::uint32_t>(h ^ (h >> 32)) | kSlotOccupied;
}

/// Splitmix64 finalizer: a hash for integer keys (std::hash is the identity
/// on libstdc++, which would put every address sharing its low bits in one
/// probe run).
struct IntHash {
  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
};

/// The probing core. `Slot` is trivially copyable, has a `std::uint32_t
/// hash` member and is empty when value-initialised.
template <typename Slot>
class FlatTable {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slot-array length: 0 until the first insert, then a power of two.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// The occupied slot with this tagged hash for which `eq(slot)` holds.
  template <typename Eq>
  [[nodiscard]] Slot* find(std::uint32_t hash, Eq&& eq) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.hash == 0) return nullptr;
      if (s.hash == hash && eq(s)) return &s;
    }
  }
  template <typename Eq>
  [[nodiscard]] const Slot* find(std::uint32_t hash, Eq&& eq) const {
    return const_cast<FlatTable*>(this)->find(hash, std::forward<Eq>(eq));
  }

  /// The slot matching `eq`, or (second == true) a claimed empty slot with
  /// only `hash` set, for the caller to fill. May grow the table, which
  /// invalidates every slot pointer.
  template <typename Eq>
  std::pair<Slot*, bool> find_or_claim(std::uint32_t hash, Eq&& eq) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.hash == 0) {
        s.hash = hash;
        ++size_;
        return {&s, true};
      }
      if (s.hash == hash && eq(s)) return {&s, false};
    }
  }

  /// Empties an occupied slot and shifts the rest of its probe run back
  /// over the hole: a slot moves when the hole lies between its home index
  /// and its current one.
  void erase(Slot* slot) {
    std::size_t hole = static_cast<std::size_t>(slot - slots_.data());
    for (std::size_t i = (hole + 1) & mask_; slots_[i].hash != 0;
         i = (i + 1) & mask_) {
      const std::size_t home = slots_[i].hash & mask_;
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Erases every slot for which `pred(slot)` holds. A run that wraps past
  /// the array end can shift an already-visited slot back to the end, where
  /// it is asked again, so `pred` must answer the same for a slot twice.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      while (slots_[i].hash != 0 && pred(slots_[i])) erase(&slots_[i]);
    }
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinSlots : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.hash == 0) continue;
      std::size_t i = s.hash & mask_;
      while (slots_[i].hash != 0) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Key -> value map on a FlatTable; key and value live in the slot. `Hash`
/// returns a well-mixed 64-bit hash. Only lookup, insert and erase are
/// offered: there is no iteration order to depend on.
template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] bool empty() const { return table_.empty(); }
  [[nodiscard]] std::size_t slot_count() const { return table_.slot_count(); }

  [[nodiscard]] Value* find(const Key& key) {
    Slot* s = table_.find(tag(key), matches(key));
    return s == nullptr ? nullptr : &s->value;
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    const Slot* s = table_.find(tag(key), matches(key));
    return s == nullptr ? nullptr : &s->value;
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return find(key) != nullptr;
  }

  /// Inserts `value` unless `key` is present; returns the key's value and
  /// whether it was inserted.
  std::pair<Value*, bool> try_emplace(const Key& key, const Value& value) {
    auto [slot, added] = table_.find_or_claim(tag(key), matches(key));
    if (added) {
      slot->key = key;
      slot->value = value;
    }
    return {&slot->value, added};
  }

  /// The value for `key`, value-initialised when the key was absent.
  Value& operator[](const Key& key) { return *try_emplace(key, Value{}).first; }

  /// False if the key was absent.
  bool erase(const Key& key) {
    Slot* s = table_.find(tag(key), matches(key));
    if (s == nullptr) return false;
    table_.erase(s);
    return true;
  }

  /// Erases every entry for which `pred(key, value)` holds; see
  /// FlatTable::erase_if for why `pred` must be pure.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    table_.erase_if([&](Slot& s) { return pred(s.key, s.value); });
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    Key key{};
    Value value{};
  };

  [[nodiscard]] static std::uint32_t tag(const Key& key) {
    return slot_hash(Hash{}(key));
  }
  [[nodiscard]] static auto matches(const Key& key) {
    return [&key](const Slot& s) { return s.key == key; };
  }

  FlatTable<Slot> table_;
};

}  // namespace tcpz
