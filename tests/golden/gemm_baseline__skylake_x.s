	.section .note.GNU-stack,"",@progbits
	.text
	.globl golden_gemm
	.type golden_gemm, @function
	.p2align 4
golden_gemm:
	push	%r12
	push	%r13
	push	%r14
	push	%r15
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg Mc
	mov	%rsi, 8(%rsp)	# arg Nc
	mov	%rdx, 16(%rsp)	# arg Kc
	mov	%rcx, 24(%rsp)	# arg A
	mov	%r8, 32(%rsp)	# arg B
	mov	%r9, 40(%rsp)	# arg C
	mov	152(%rsp), %rax	# stack arg LDC
	mov	%rax, 48(%rsp)
	mov	(%rsp), %rcx	# home Mc
	mov	8(%rsp), %r13	# home Nc
	mov	16(%rsp), %r8	# home Kc
	mov	24(%rsp), %rbp	# home A
	mov	32(%rsp), %r12	# home B
	mov	40(%rsp), %r14	# home C
	mov	48(%rsp), %r15	# home LDC
	mov	$0, %rbx
	jmp	.LBL0
.LBL1:
	mov	%rbx, %rax
	imul	%r15, %rax
	mov	%r14, %r10
	lea	(%r10,%rax,8), %r10
	mov	$0, %r9
	jmp	.LBL2
.LBL3:
	mov	%rbp, %rsi
	mov	%r9, %rax
	lea	(%rsi,%rax,8), %rsi
	mov	%rbx, %rax
	imul	%r8, %rax
	mov	%r12, %rdx
	vxorpd	%xmm12, %xmm12, %xmm12
	lea	(%rdx,%rax,8), %rdx
	mov	$0, %rdi
	jmp	.LBL4
.LBL5:
	# --- mmCOMP ---
	vmovsd	(%rsi), %xmm0	# tmp0 = ptr_A0[0]
	vmovsd	(%rdx), %xmm4	# tmp1 = ptr_B0[0]
	vfmadd231sd	%xmm0, %xmm4, %xmm12	# res += tmp0*tmp1
	mov	%rcx, %rax
	add	$8, %rdx	# ptr_B0 += 1
	lea	(%rsi,%rax,8), %rsi	# ptr_A0 += ...
	add	$1, %rdi
.LBL4:
	cmp	%r8, %rdi
	jl	.LBL5
	# --- mmSTORE ---
	vmovsd	(%r10), %xmm8	# tmp3 = ptr_C0[0]
	vaddsd	%xmm8, %xmm12, %xmm12
	vmovsd	%xmm12, (%r10)	# ptr_C0[0] = res
	add	$8, %r10	# ptr_C0 += 1
	add	$1, %r9
.LBL2:
	cmp	%rcx, %r9
	jl	.LBL3
	add	$1, %rbx
.LBL0:
	cmp	%r13, %rbx
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r15
	pop	%r14
	pop	%r13
	vzeroupper
	pop	%r12
	ret
	.size golden_gemm, .-golden_gemm
