#include "dns/wire_view.hpp"

#include <vector>

namespace zh::dns {
namespace {

/// Big-endian u16 at `pos`; caller guarantees bounds.
std::uint16_t read_u16(std::span<const std::uint8_t> wire, std::size_t pos) {
  return static_cast<std::uint16_t>((std::uint16_t{wire[pos]} << 8) |
                                    wire[pos + 1]);
}

std::uint32_t read_u32(std::span<const std::uint8_t> wire, std::size_t pos) {
  return (std::uint32_t{wire[pos]} << 24) | (std::uint32_t{wire[pos + 1]} << 16) |
         (std::uint32_t{wire[pos + 2]} << 8) | std::uint32_t{wire[pos + 3]};
}

/// Validated walk of one possibly-compressed name starting at `pos`:
/// read_compressed_name's exact checks and error taxonomy, recording the
/// view geometry instead of materialising labels. On success `resume` is
/// the position just past the name's in-place bytes.
struct NameScan {
  std::size_t resume = 0;
  std::uint16_t wire_length = 1;
  std::uint8_t label_count = 0;
};

std::optional<NameScan> scan_name(std::span<const std::uint8_t> wire,
                                  std::size_t pos, WireErrc& err) {
  NameScan scan;
  std::size_t total = 1;
  std::size_t labels = 0;
  std::optional<std::size_t> resume;
  std::size_t min_pointer_target = pos;

  const auto fail = [&](WireErrc errc) -> std::optional<NameScan> {
    err = errc;
    return std::nullopt;
  };
  for (;;) {
    if (pos >= wire.size()) return fail(WireErrc::kTruncated);
    const std::uint8_t len = wire[pos];
    if ((len & 0xc0) == 0xc0) {
      if (pos + 1 >= wire.size()) return fail(WireErrc::kTruncated);
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | wire[pos + 1];
      if (target >= min_pointer_target)
        return fail(WireErrc::kPointerLoop);  // forward/self pointer
      if (!resume) resume = pos + 2;
      min_pointer_target = target;
      pos = target;
      continue;
    }
    if (len & 0xc0) return fail(WireErrc::kBadLabelType);  // reserved types
    if (len == 0) {
      if (!resume) resume = pos + 1;
      break;
    }
    if (pos + 1 + len > wire.size()) return fail(WireErrc::kTruncated);
    ++labels;
    total += 1 + len;
    if (total > Name::kMaxWireLength) return fail(WireErrc::kNameTooLong);
    pos += 1 + len;
  }
  scan.resume = *resume;
  scan.wire_length = static_cast<std::uint16_t>(total);
  scan.label_count = static_cast<std::uint8_t>(labels);
  return scan;
}

}  // namespace

bool NameView::equals(const Name& other) const noexcept {
  if (label_count_ != other.label_count()) return false;
  std::size_t i = 0;
  bool equal = true;
  for_each_label([&](std::string_view label) {
    equal = equal && label_equal_ci(label, other.label(i++));
  });
  return equal;
}

Name NameView::to_name() const {
  std::vector<std::string> labels;
  labels.reserve(label_count_);
  for_each_label([&](std::string_view label) { labels.emplace_back(label); });
  auto name = Name::from_labels(std::move(labels));
  return name ? *std::move(name) : Name{};
}

std::string NameView::to_string() const {
  if (is_root()) return ".";
  std::string out;
  for_each_label([&](std::string_view label) {
    out.append(label);
    out.push_back('.');
  });
  return out;
}

std::optional<EdeInfo> EdnsView::ede() const {
  std::size_t pos = 0;
  while (pos + 4 <= options.size()) {
    const std::uint16_t code = read_u16(options, pos);
    const std::uint16_t len = read_u16(options, pos + 2);
    const std::span<const std::uint8_t> data = options.subspan(pos + 4, len);
    pos += 4 + len;
    if (code != EdnsOption::kCodeEde) continue;
    if (data.size() < 2) return std::nullopt;
    EdeInfo info;
    info.info_code =
        static_cast<EdeCode>((std::uint16_t{data[0]} << 8) | data[1]);
    info.extra_text.assign(data.begin() + 2, data.end());
    return info;
  }
  return std::nullopt;
}

/// The parser proper — a friend so it can fill the private view fields.
struct MessageViewParser {
  static ViewDecodeResult parse(std::span<const std::uint8_t> wire,
                                MonotonicArena& arena) {
    MessageView view;
    view.wire_ = wire;
    WireErrc err = WireErrc::kOk;
    const auto fail = [&](WireErrc errc) { return ViewDecodeResult{{}, errc}; };
    if (wire.size() < 12) return fail(WireErrc::kTruncated);

    const std::uint16_t flags = read_u16(wire, 2);
    view.header.id = read_u16(wire, 0);
    view.header.qr = flags & 0x8000;
    view.header.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
    view.header.aa = flags & 0x0400;
    view.header.tc = flags & 0x0200;
    view.header.rd = flags & 0x0100;
    view.header.ra = flags & 0x0080;
    view.header.ad = flags & 0x0020;
    view.header.cd = flags & 0x0010;
    std::uint16_t rcode_value = flags & 0xf;
    const std::uint16_t qdcount = read_u16(wire, 4);
    const std::uint16_t ancount = read_u16(wire, 6);
    const std::uint16_t nscount = read_u16(wire, 8);
    const std::uint16_t arcount = read_u16(wire, 10);
    std::size_t pos = 12;

    const auto make_name = [&wire](const NameScan& scan, std::size_t at) {
      NameView name;
      name.wire_ = wire;
      name.offset_ = static_cast<std::uint32_t>(at);
      name.wire_length_ = scan.wire_length;
      name.label_count_ = scan.label_count;
      return name;
    };

    std::span<QuestionView> questions = arena.make_array<QuestionView>(qdcount);
    for (std::uint16_t i = 0; i < qdcount; ++i) {
      const auto scan = scan_name(wire, pos, err);
      if (!scan) return fail(err);
      questions[i].name = make_name(*scan, pos);
      pos = scan->resume;
      if (pos + 4 > wire.size()) return fail(WireErrc::kTruncated);
      questions[i].type = static_cast<RrType>(read_u16(wire, pos));
      questions[i].klass = static_cast<RrClass>(read_u16(wire, pos + 2));
      pos += 4;
    }
    view.questions = questions;

    const auto read_section =
        [&](std::uint16_t count,
            std::span<const RecordView>& section) -> bool {
      std::span<RecordView> records = arena.make_array<RecordView>(count);
      std::size_t written = 0;
      for (std::uint16_t i = 0; i < count; ++i) {
        const auto scan = scan_name(wire, pos, err);
        if (!scan) return false;
        const std::size_t name_at = pos;
        pos = scan->resume;
        if (pos + 10 > wire.size()) {
          err = WireErrc::kTruncated;
          return false;
        }
        const RrType type = static_cast<RrType>(read_u16(wire, pos));
        const RrClass klass = static_cast<RrClass>(read_u16(wire, pos + 2));
        const std::uint32_t ttl = read_u32(wire, pos + 4);
        const std::uint16_t rdlength = read_u16(wire, pos + 8);
        pos += 10;

        if (type == RrType::kOpt) {
          // Lift OPT into view.edns, validating the options in place.
          EdnsView edns;
          edns.udp_payload_size = static_cast<std::uint16_t>(klass);
          edns.version = static_cast<std::uint8_t>((ttl >> 16) & 0xff);
          edns.do_bit = ttl & 0x8000;
          rcode_value = static_cast<std::uint16_t>(
              rcode_value | (((ttl >> 24) & 0xff) << 4));
          const std::size_t end = pos + rdlength;
          if (end > wire.size()) {
            err = WireErrc::kTruncated;
            return false;
          }
          edns.options = wire.subspan(pos, rdlength);
          while (pos < end) {
            if (pos + 4 > wire.size()) {
              err = WireErrc::kBadOpt;
              return false;
            }
            const std::uint16_t len = read_u16(wire, pos + 2);
            if (pos + 4 + len > wire.size() || pos + 4 + len > end) {
              err = WireErrc::kBadOpt;
              return false;
            }
            pos += 4 + len;
          }
          view.edns = edns;
          continue;
        }

        // Message::decode's read_rdata checks, span-shaped: the whole-wire
        // bound first, then per-type embedded-name validation.
        const std::size_t end = pos + rdlength;
        if (end > wire.size()) {
          err = WireErrc::kTruncated;
          return false;
        }
        switch (type) {
          case RrType::kNs:
          case RrType::kCname: {
            const auto inner = scan_name(wire, pos, err);
            if (!inner) return false;
            if (inner->resume != end) {
              err = WireErrc::kBadRdata;
              return false;
            }
            break;
          }
          case RrType::kMx: {
            if (pos + 2 > wire.size()) {
              err = WireErrc::kTruncated;
              return false;
            }
            const auto inner = scan_name(wire, pos + 2, err);
            if (!inner) return false;
            if (inner->resume != end) {
              err = WireErrc::kBadRdata;
              return false;
            }
            break;
          }
          case RrType::kSoa: {
            const auto mname = scan_name(wire, pos, err);
            if (!mname) return false;
            const auto rname = scan_name(wire, mname->resume, err);
            if (!rname) return false;
            if (rname->resume + 20 != end) {
              err = WireErrc::kBadRdata;
              return false;
            }
            break;
          }
          default:
            break;  // opaque rdata: the end bound is the whole check
        }

        RecordView& record = records[written++];
        record.name = make_name(*scan, name_at);
        record.type = type;
        record.klass = klass;
        record.ttl = ttl;
        record.rdata = wire.subspan(pos, rdlength);
        pos = end;
      }
      section = records.subspan(0, written);
      return true;
    };

    if (!read_section(ancount, view.answers)) return fail(err);
    if (!read_section(nscount, view.authorities)) return fail(err);
    if (!read_section(arcount, view.additionals)) return fail(err);

    // Strict framing, as Message::decode: every byte must be accounted for.
    if (pos != wire.size()) return fail(WireErrc::kTrailingBytes);

    view.header.rcode = static_cast<Rcode>(rcode_value);
    return ViewDecodeResult{view, WireErrc::kOk};
  }
};

ViewDecodeResult MessageView::parse(std::span<const std::uint8_t> wire,
                                    MonotonicArena& arena) {
  return MessageViewParser::parse(wire, arena);
}

Message MessageView::to_message() const {
  auto decoded = Message::decode(wire_);
  return decoded.message ? *std::move(decoded.message) : Message{};
}

}  // namespace zh::dns
