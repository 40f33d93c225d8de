// Per-process address space: builds and edits Sv39 page tables (with the
// ROLoad key field) inside simulated physical memory. This is the model of
// the paper's arch/riscv Linux changes that "handle page keys at each level
// of MMU abstraction".
#pragma once

#include <cstdint>

#include "mem/page_table.h"
#include "mem/phys_memory.h"
#include "support/status.h"

namespace roload::kernel {

// Page protection + key, the argument surface of our mmap/mprotect model.
struct PageProt {
  bool read = false;
  bool write = false;
  bool exec = false;
  std::uint32_t key = mem::kDefaultPageKey;

  static PageProt Rx() { return {true, false, true, 0}; }
  static PageProt Ro(std::uint32_t key = 0) { return {true, false, false, key}; }
  static PageProt Rw() { return {true, true, false, 0}; }
};

// Physical frame allocator: bump allocation over a region of PhysMemory
// reserved for a process and the kernel. Frames are never freed (the
// kernel has no munmap).
class FrameAllocator {
 public:
  FrameAllocator(std::uint64_t first_frame, std::uint64_t frame_count)
      : next_(first_frame), end_(first_frame + frame_count) {}

  // Allocates one 4 KiB frame; returns its PPN.
  StatusOr<std::uint64_t> Allocate();

  std::uint64_t allocated_frames() const { return allocated_; }

 private:
  std::uint64_t next_;
  std::uint64_t end_;
  std::uint64_t allocated_ = 0;
};

class AddressSpace {
 public:
  AddressSpace(mem::PhysMemory* memory, FrameAllocator* frames);

  // Root page-table PPN (the satp value the CPU uses).
  std::uint64_t root_ppn() const { return root_ppn_; }

  // Maps `page_count` pages starting at page-aligned `vaddr`, allocating
  // fresh zeroed frames.
  Status Map(std::uint64_t vaddr, std::uint64_t page_count,
             const PageProt& prot);

  // Changes permissions/key of already-mapped pages (mprotect model).
  Status Protect(std::uint64_t vaddr, std::uint64_t page_count,
                 const PageProt& prot);

  // Reads the leaf PTE mapping `vaddr`, if any.
  StatusOr<mem::Pte> GetPte(std::uint64_t vaddr) const;

  // Translate for kernel-side copies (no permission checks).
  StatusOr<std::uint64_t> VirtToPhys(std::uint64_t vaddr) const;

  // Copies into / out of guest memory across page boundaries.
  Status CopyIn(std::uint64_t vaddr, const std::uint8_t* data,
                std::uint64_t size);
  Status CopyOut(std::uint64_t vaddr, std::uint8_t* data,
                 std::uint64_t size) const;

  std::uint64_t mapped_pages() const { return mapped_pages_; }

 private:
  static std::uint64_t PteFlags(const PageProt& prot);

  // Returns the physical address of the leaf PTE slot for `vaddr`,
  // creating intermediate tables when `create` is set.
  StatusOr<std::uint64_t> LeafSlot(std::uint64_t vaddr, bool create);

  mem::PhysMemory* memory_;
  FrameAllocator* frames_;
  std::uint64_t root_ppn_ = 0;
  std::uint64_t mapped_pages_ = 0;
};

}  // namespace roload::kernel
