#include "kernel/address_space.h"

#include "support/bits.h"

namespace roload::kernel {

StatusOr<std::uint64_t> FrameAllocator::Allocate() {
  if (next_ >= end_) return Status::OutOfRange("out of physical frames");
  ++allocated_;
  return next_++;
}

AddressSpace::AddressSpace(mem::PhysMemory* memory, FrameAllocator* frames)
    : memory_(memory), frames_(frames) {
  auto root = frames_->Allocate();
  ROLOAD_CHECK(root.ok());
  root_ppn_ = *root;
  memory_->Fill(root_ppn_ << mem::kPageShift, mem::kPageSize, 0);
}

std::uint64_t AddressSpace::PteFlags(const PageProt& prot) {
  std::uint64_t flags = mem::kPteValid | mem::kPteUser | mem::kPteAccessed |
                        mem::kPteDirty;
  if (prot.read) flags |= mem::kPteRead;
  if (prot.write) flags |= mem::kPteWrite;
  if (prot.exec) flags |= mem::kPteExec;
  return flags;
}

StatusOr<std::uint64_t> AddressSpace::LeafSlot(std::uint64_t vaddr,
                                               bool create) {
  if (!mem::IsCanonicalSv39(vaddr)) {
    return Status::InvalidArgument("non-canonical virtual address");
  }
  std::uint64_t table_ppn = root_ppn_;
  for (int level = mem::kSv39Levels - 1; level > 0; --level) {
    const unsigned shift =
        mem::kPageShift + mem::kVpnBits * static_cast<unsigned>(level);
    const std::uint64_t vpn =
        ExtractBits(vaddr, shift + mem::kVpnBits - 1, shift);
    const std::uint64_t slot = (table_ppn << mem::kPageShift) + vpn * 8;
    mem::Pte pte(memory_->Read(slot, 8));
    if (!pte.valid()) {
      if (!create) return Status::NotFound("unmapped intermediate table");
      auto frame = frames_->Allocate();
      if (!frame.ok()) return frame.status();
      memory_->Fill(*frame << mem::kPageShift, mem::kPageSize, 0);
      pte = mem::Pte::MakeNonLeaf(*frame);
      memory_->Write(slot, 8, pte.raw());
    } else if (pte.leaf()) {
      return Status::FailedPrecondition("superpage in the way");
    }
    table_ppn = pte.ppn();
  }
  const std::uint64_t vpn0 =
      ExtractBits(vaddr, mem::kPageShift + mem::kVpnBits - 1, mem::kPageShift);
  return (table_ppn << mem::kPageShift) + vpn0 * 8;
}

Status AddressSpace::Map(std::uint64_t vaddr, std::uint64_t page_count,
                         const PageProt& prot) {
  if ((vaddr & (mem::kPageSize - 1)) != 0) {
    return Status::InvalidArgument("unaligned map address");
  }
  if (prot.key > mem::kPteKeyMax) {
    return Status::InvalidArgument("page key exceeds 10 bits");
  }
  for (std::uint64_t i = 0; i < page_count; ++i) {
    const std::uint64_t page_vaddr = vaddr + i * mem::kPageSize;
    auto slot = LeafSlot(page_vaddr, /*create=*/true);
    if (!slot.ok()) return slot.status();
    mem::Pte existing(memory_->Read(*slot, 8));
    if (existing.valid()) {
      return Status::AlreadyExists("page already mapped");
    }
    auto frame = frames_->Allocate();
    if (!frame.ok()) return frame.status();
    memory_->Fill(*frame << mem::kPageShift, mem::kPageSize, 0);
    const mem::Pte pte = mem::Pte::MakeLeaf(*frame, PteFlags(prot), prot.key);
    memory_->Write(*slot, 8, pte.raw());
    ++mapped_pages_;
  }
  return Status::Ok();
}

Status AddressSpace::Protect(std::uint64_t vaddr, std::uint64_t page_count,
                             const PageProt& prot) {
  if ((vaddr & (mem::kPageSize - 1)) != 0) {
    return Status::InvalidArgument("unaligned protect address");
  }
  if (prot.key > mem::kPteKeyMax) {
    return Status::InvalidArgument("page key exceeds 10 bits");
  }
  for (std::uint64_t i = 0; i < page_count; ++i) {
    const std::uint64_t page_vaddr = vaddr + i * mem::kPageSize;
    auto slot = LeafSlot(page_vaddr, /*create=*/false);
    if (!slot.ok()) return slot.status();
    mem::Pte pte(memory_->Read(*slot, 8));
    if (!pte.valid() || !pte.leaf()) {
      return Status::NotFound("protect on unmapped page");
    }
    pte.set_flags(PteFlags(prot));
    pte.set_key(prot.key);
    memory_->Write(*slot, 8, pte.raw());
  }
  return Status::Ok();
}

StatusOr<mem::Pte> AddressSpace::GetPte(std::uint64_t vaddr) const {
  auto slot = const_cast<AddressSpace*>(this)->LeafSlot(vaddr,
                                                        /*create=*/false);
  if (!slot.ok()) return slot.status();
  mem::Pte pte(memory_->Read(*slot, 8));
  if (!pte.valid()) return Status::NotFound("unmapped page");
  return pte;
}

StatusOr<std::uint64_t> AddressSpace::VirtToPhys(std::uint64_t vaddr) const {
  auto pte = GetPte(AlignDown(vaddr, mem::kPageSize));
  if (!pte.ok()) return pte.status();
  return (pte->ppn() << mem::kPageShift) + (vaddr & (mem::kPageSize - 1));
}

Status AddressSpace::CopyIn(std::uint64_t vaddr, const std::uint8_t* data,
                            std::uint64_t size) {
  while (size > 0) {
    auto phys = VirtToPhys(vaddr);
    if (!phys.ok()) return phys.status();
    const std::uint64_t in_page =
        mem::kPageSize - (vaddr & (mem::kPageSize - 1));
    const std::uint64_t chunk = size < in_page ? size : in_page;
    memory_->WriteBlock(*phys, data, chunk);
    vaddr += chunk;
    data += chunk;
    size -= chunk;
  }
  return Status::Ok();
}

Status AddressSpace::CopyOut(std::uint64_t vaddr, std::uint8_t* data,
                             std::uint64_t size) const {
  while (size > 0) {
    auto phys = VirtToPhys(vaddr);
    if (!phys.ok()) return phys.status();
    const std::uint64_t in_page =
        mem::kPageSize - (vaddr & (mem::kPageSize - 1));
    const std::uint64_t chunk = size < in_page ? size : in_page;
    for (std::uint64_t i = 0; i < chunk; ++i) {
      data[i] = static_cast<std::uint8_t>(memory_->Read(*phys + i, 1));
    }
    vaddr += chunk;
    data += chunk;
    size -= chunk;
  }
  return Status::Ok();
}

}  // namespace roload::kernel
