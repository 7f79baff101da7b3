# Tagged STREAM sweep. The file "cfg" holds two little-endian dwords:
# the region's offset from the label region (0x80200000) and its length in bytes (a whole
# number of 64-byte lines). The program tags the whole region with one
# ctag.set, reads it back one ld per line, writes the last line (still
# cache-resident, so no extra fill) to stdout, and exits 0 when every
# word it read decrypted to the zero it was born as.

    .text
_start:
    li   a0, -100
    la   a1, cfg_path
    li   a2, 0
    li   a7, 56
    ecall
    mv   s0, a0

    mv   a0, s0
    la   a1, cfg
    li   a2, 16
    li   a7, 63
    ecall

    la   t0, cfg
    ld   s1, 0(t0)         # offset
    ld   s2, 8(t0)         # length
    la   t1, region
    add  s1, s1, t1        # region base
    add  s3, s1, s2        # region end

    ctag.set s1, s2

    mv   t0, s1
    li   s4, 0
rd:
    ld   t3, 0(t0)
    or   s4, s4, t3
    addi t0, t0, 64
    bltu t0, s3, rd

    li   a0, 1
    addi a1, s3, -64
    li   a2, 64
    li   a7, 64
    ecall

    sltu a0, zero, s4      # 1 if any word read back non-zero
    li   a7, 93
    ecall

    .data
cfg_path:
    .asciz "cfg"
    .align 3
cfg:
    .dword 0
    .dword 0

    .org 0x80200000
region:
    .dword 0
