// Growable FIFO ring for per-connection and per-queue state.
//
// A server holding very many mostly idle flows pays for every empty queue in each of
// them, so a Fifo owns no storage until its first push: an empty Fifo is three words
// and no heap. The first push allocates 4 slots and the ring doubles when full, with
// the power-of-two masking of RingBuffer. Elements are placement-constructed in raw
// slots, so T needs no default constructor and popped slots hold nothing.
//
// Unlike std::deque, growth moves the elements: a push may invalidate references and
// iterators into the same Fifo.

#ifndef SRC_COMMON_FIFO_H_
#define SRC_COMMON_FIFO_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/logging.h"

namespace demi {

template <typename T>
class Fifo {
  template <bool kConst>
  class Iter {
    using Owner = std::conditional_t<kConst, const Fifo, Fifo>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<kConst, const T*, T*>;
    using reference = std::conditional_t<kConst, const T&, T&>;

    Iter() = default;
    reference operator*() const { return (*fifo_)[index_]; }
    pointer operator->() const { return &(*fifo_)[index_]; }
    Iter& operator++() {
      ++index_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++index_;
      return old;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.index_ == b.index_; }

   private:
    friend class Fifo;
    Iter(Owner* fifo, std::size_t index) : fifo_(fifo), index_(index) {}
    Owner* fifo_ = nullptr;
    std::size_t index_ = 0;
  };

 public:
  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  Fifo() = default;
  Fifo(Fifo&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Fifo& operator=(Fifo&& other) noexcept {
    if (this != &other) {
      Release();
      slots_ = std::exchange(other.slots_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() { Release(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Slots allocated; 0 until the first push.
  std::size_t capacity() const { return capacity_; }

  // i-th element from the front.
  T& operator[](std::size_t i) { return slots_[Slot(i)]; }
  const T& operator[](std::size_t i) const { return slots_[Slot(i)]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      return GrowAndEmplace(std::forward<Args>(args)...);
    }
    T* slot = ::new (static_cast<void*>(&slots_[Slot(size_)])) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_front() {
    DEMI_CHECK(size_ > 0);
    std::destroy_at(&slots_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  // Destroys every element; the slots stay allocated for reuse.
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
    head_ = 0;
  }

  // Removes the element at `pos`, shifting the shorter side of the ring over the gap,
  // and returns an iterator to the element that followed it.
  iterator erase(iterator pos) {
    const std::size_t i = pos.index_;
    DEMI_CHECK(pos.fifo_ == this && i < size_);
    if (i < size_ / 2) {
      for (std::size_t j = i; j > 0; --j) {
        (*this)[j] = std::move((*this)[j - 1]);
      }
      pop_front();
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) {
        (*this)[j] = std::move((*this)[j + 1]);
      }
      std::destroy_at(&back());
      --size_;
    }
    return iterator(this, i);
  }

 private:
  static constexpr std::uint32_t kInitialCapacity = 4;

  std::size_t Slot(std::size_t i) const { return (head_ + i) & (capacity_ - 1); }

  // Allocates twice the slots, constructs the new element at the back first (so an
  // argument that refers into this Fifo is read before the old slots go away), then
  // moves the old elements over in FIFO order.
  template <typename... Args>
  T& GrowAndEmplace(Args&&... args) {
    const std::uint32_t new_capacity = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
    DEMI_CHECK(new_capacity > capacity_);
    T* fresh = std::allocator<T>().allocate(new_capacity);
    T* slot = ::new (static_cast<void*>(&fresh[size_])) T(std::forward<Args>(args)...);
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = (*this)[i];
      ::new (static_cast<void*>(&fresh[i])) T(std::move(old));
      std::destroy_at(&old);
    }
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, capacity_);
    }
    slots_ = fresh;
    capacity_ = new_capacity;
    head_ = 0;
    ++size_;
    return *slot;
  }

  void Release() {
    clear();
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, capacity_);
      slots_ = nullptr;
      capacity_ = 0;
    }
  }

  T* slots_ = nullptr;
  std::uint32_t capacity_ = 0;  // 0 or a power of two
  std::uint32_t head_ = 0;      // slot of the front element
  std::uint32_t size_ = 0;
};

}  // namespace demi

#endif  // SRC_COMMON_FIFO_H_
