# Insertion sort of 8-byte records read from an O_SENSITIVE file. The
# record count is the byte count read() returns, divided by 8 (at most
# 512 records). Exits 0 when the result is in unsigned ascending order
# and has the same sum as the input, 1 otherwise.

    .text
_start:
    li   a0, -100
    la   a1, rec_path
    li   a2, 0x02000000    # O_SENSITIVE
    li   a7, 56
    ecall

    la   s2, records       # 4 KiB buffer
    mv   a1, s2
    li   a2, 4096
    li   a7, 63
    ecall
    srli s1, a0, 3         # n
    slli t0, s1, 3
    add  s3, s2, t0        # end of records

    li   s4, 0             # sum before
    mv   t0, s2
sum0:
    bgeu t0, s3, sort
    ld   t1, 0(t0)
    add  s4, s4, t1
    addi t0, t0, 8
    j    sum0

sort:
    addi t0, s2, 8         # &a[i], i = 1
outer:
    bgeu t0, s3, verify
    ld   t2, 0(t0)         # key
    mv   t3, t0
inner:
    beq  t3, s2, place
    ld   t4, -8(t3)
    bgeu t2, t4, place
    sd   t4, 0(t3)
    addi t3, t3, -8
    j    inner
place:
    sd   t2, 0(t3)
    addi t0, t0, 8
    j    outer

verify:
    li   s5, 0             # sum after
    li   a0, 0
    mv   t0, s2
    li   t5, 0             # previous record
chk:
    bgeu t0, s3, done
    ld   t1, 0(t0)
    add  s5, s5, t1
    bltu t1, t5, bad
    mv   t5, t1
    addi t0, t0, 8
    j    chk
done:
    beq  s4, s5, out
bad:
    li   a0, 1
out:
    li   a7, 93
    ecall

    .data
rec_path:
    .asciz "records"

    .org 0x80180000
records:
    .dword 0
