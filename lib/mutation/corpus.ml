module Ir = Devil_ir.Ir
module Dtype = Devil_ir.Dtype
module Bitpat = Devil_bits.Bitpat

(* {1 The kernel-side environment of a traditional driver} *)

let io_funcs =
  [
    ("inb", 1); ("outb", 2); ("inw", 1); ("outw", 2); ("inl", 1); ("outl", 2);
    ("insb", 3); ("insw", 3); ("insl", 3);
    ("outsb", 3); ("outsw", 3); ("outsl", 3);
    ("readl", 1); ("writel", 2);
    ("udelay", 1); ("mdelay", 1);
    ("request_irq", 2); ("free_irq", 1);
    ("memcpy_fromio", 3); ("memcpy_toio", 3);
  ]

let c_env : C_lang.env =
  {
    C_lang.vars = [ "jiffies" ];
    consts = [ ("HZ", Some 100); ("NULL", Some 0) ];
    funcs =
      List.map
        (fun (n, a) -> (n, { C_lang.arity = a; args = [] }))
        io_funcs;
  }

(* {1 Logitech busmouse, traditional C}

   After linux-2.2.12 drivers/char/busmouse.c: the tagged hardware
   operating regions (paper §4.2). *)

let busmouse_c =
  {|
#define MSE_DATA_PORT 0x23c
#define MSE_SIGNATURE_PORT 0x23d
#define MSE_CONTROL_PORT 0x23e
#define MSE_CONFIG_PORT 0x23f
#define MSE_READ_X_LOW 0x80
#define MSE_READ_X_HIGH 0xa0
#define MSE_READ_Y_LOW 0xc0
#define MSE_READ_Y_HIGH 0xe0
#define MSE_INT_ON 0x00
#define MSE_INT_OFF 0x10
#define MSE_DEFAULT_MODE 0x90

static int mouse_buttons;
static int mouse_dx;
static int mouse_dy;

static void mouse_interrupt(void)
{
  char dx;
  char dy;
  unsigned char buttons;
  outb(MSE_READ_X_LOW, MSE_CONTROL_PORT);
  dx = inb(MSE_DATA_PORT) & 0xf;
  outb(MSE_READ_X_HIGH, MSE_CONTROL_PORT);
  dx |= (inb(MSE_DATA_PORT) & 0xf) << 4;
  outb(MSE_READ_Y_LOW, MSE_CONTROL_PORT);
  dy = inb(MSE_DATA_PORT) & 0xf;
  outb(MSE_READ_Y_HIGH, MSE_CONTROL_PORT);
  buttons = inb(MSE_DATA_PORT);
  dy |= (buttons & 0xf) << 4;
  buttons = (buttons >> 5) & 0x07;
  mouse_dx += dx;
  mouse_dy += dy;
  mouse_buttons = buttons;
  outb(MSE_INT_ON, MSE_CONTROL_PORT);
}

static int mouse_probe(void)
{
  outb(0x5a, MSE_SIGNATURE_PORT);
  udelay(100);
  if (inb(MSE_SIGNATURE_PORT) != 0x5a)
    return 0;
  outb(MSE_DEFAULT_MODE, MSE_CONFIG_PORT);
  outb(MSE_INT_OFF, MSE_CONTROL_PORT);
  return 1;
}
|}

(* {1 IDE (PIIX4), traditional C} — after linux-2.2.12 drivers/block. *)

let ide_c =
  {|
#define IDE_BASE 0x1f0
#define IDE_DATA 0x1f0
#define IDE_ERROR 0x1f1
#define IDE_NSECTOR 0x1f2
#define IDE_SECTOR 0x1f3
#define IDE_LCYL 0x1f4
#define IDE_HCYL 0x1f5
#define IDE_SELECT 0x1f6
#define IDE_STATUS 0x1f7
#define IDE_COMMAND 0x1f7
#define IDE_CONTROL 0x3f6
#define BUSY_STAT 0x80
#define READY_STAT 0x40
#define DRQ_STAT 0x08
#define ERR_STAT 0x01
#define WIN_READ 0x20
#define WIN_WRITE 0x30
#define WIN_READDMA 0xc8
#define SECTOR_WORDS 256
#define BM_COMMAND 0xc000
#define BM_STATUS 0xc002
#define BM_PRD 0xc004

static int ide_wait_ready(void)
{
  int timeout = 10000;
  while (inb(IDE_STATUS) & BUSY_STAT) {
    if (--timeout == 0)
      return 1;
    udelay(10);
  }
  return 0;
}

static void ide_setup_command(unsigned int block, int nsect, int cmd)
{
  outb(nsect, IDE_NSECTOR);
  outb(block & 0xff, IDE_SECTOR);
  outb((block >> 8) & 0xff, IDE_LCYL);
  outb((block >> 16) & 0xff, IDE_HCYL);
  outb(0xe0 | ((block >> 24) & 0x0f), IDE_SELECT);
  outb(cmd, IDE_COMMAND);
}

static int ide_read_block(unsigned int block, int nsect, unsigned short *buffer)
{
  int stat;
  int i;
  if (ide_wait_ready())
    return 1;
  ide_setup_command(block, nsect, WIN_READ);
  for (i = 0; i < nsect; i++) {
    do {
      stat = inb(IDE_STATUS);
      if (stat & ERR_STAT)
        return 1;
    } while ((stat & (BUSY_STAT | DRQ_STAT)) != DRQ_STAT);
    insw(IDE_DATA, buffer, SECTOR_WORDS);
    buffer += SECTOR_WORDS;
  }
  return 0;
}

static int ide_dma_read(unsigned int block, int nsect, unsigned long prd)
{
  if (ide_wait_ready())
    return 1;
  outl(prd, BM_PRD);
  ide_setup_command(block, nsect, WIN_READDMA);
  outb(0x08, BM_COMMAND);
  outb(0x09, BM_COMMAND);
  while ((inb(BM_STATUS) & 0x04) == 0)
    udelay(10);
  outb(0x04, BM_STATUS);
  outb(0x00, BM_COMMAND);
  return 0;
}

static void ide_soft_reset(void)
{
  outb(0x04, IDE_CONTROL);
  udelay(10);
  outb(0x00, IDE_CONTROL);
  while (inb(IDE_STATUS) & BUSY_STAT)
    udelay(10);
}
|}

(* {1 NE2000, traditional C} — after linux-2.2.12 drivers/net/ne.c and
   8390.c hardware operating regions. *)

let ne2000_c =
  {|
#define NE_BASE 0x300
#define NE_CMD 0x300
#define NE_DATAPORT 0x310
#define NE_RESET 0x31f
#define EN0_STARTPG 0x301
#define EN0_STOPPG 0x302
#define EN0_BOUNDARY 0x303
#define EN0_TPSR 0x304
#define EN0_TCNTLO 0x305
#define EN0_TCNTHI 0x306
#define EN0_ISR 0x307
#define EN0_RSARLO 0x308
#define EN0_RSARHI 0x309
#define EN0_RCNTLO 0x30a
#define EN0_RCNTHI 0x30b
#define EN0_RXCR 0x30c
#define EN0_TXCR 0x30d
#define EN0_DCFG 0x30e
#define EN0_IMR 0x30f
#define EN1_PHYS 0x301
#define EN1_CURPAG 0x307
#define E8390_STOP 0x01
#define E8390_START 0x02
#define E8390_TRANS 0x04
#define E8390_RREAD 0x08
#define E8390_RWRITE 0x10
#define E8390_NODMA 0x20
#define E8390_PAGE0 0x00
#define E8390_PAGE1 0x40
#define ENISR_RX 0x01
#define ENISR_TX 0x02
#define ENISR_RX_ERR 0x04
#define ENISR_TX_ERR 0x08
#define ENISR_OVER 0x10
#define ENISR_COUNTERS 0x20
#define ENISR_RDC 0x40
#define ENISR_RESET 0x80
#define ENISR_ALL 0x3f
#define ENDCFG_WTS 0x01
#define ENDCFG_FT1 0x40
#define ENDCFG_LS 0x08
#define ETHER_ADDR_LEN 6
#define NESM_START_PG 0x40
#define NESM_STOP_PG 0x80
#define TX_PAGES 12

static int ne_dmaing;
static unsigned char ne_mac[ETHER_ADDR_LEN];

static void ne_reset_8390(void)
{
  unsigned long reset_start_time = jiffies;
  outb(inb(NE_RESET), NE_RESET);
  while ((inb(EN0_ISR) & ENISR_RESET) == 0) {
    if (jiffies - reset_start_time > 2)
      break;
  }
  outb(ENISR_RESET, EN0_ISR);
}

static void ne_stop(void)
{
  outb(E8390_PAGE0 | E8390_STOP | E8390_NODMA, NE_CMD);
  outb(ENISR_ALL, EN0_IMR);
}

static void ne_init_8390(int startp)
{
  int i;
  outb(E8390_NODMA | E8390_PAGE0 | E8390_STOP, NE_CMD);
  outb(ENDCFG_FT1 | ENDCFG_LS, EN0_DCFG);
  outb(0x00, EN0_RCNTLO);
  outb(0x00, EN0_RCNTHI);
  outb(0x00, EN0_RXCR);
  outb(0x02, EN0_TXCR);
  outb(NESM_START_PG, EN0_STARTPG);
  outb(NESM_STOP_PG, EN0_STOPPG);
  outb(NESM_START_PG, EN0_BOUNDARY);
  outb(ENISR_ALL, EN0_ISR);
  outb(0x00, EN0_IMR);
  outb(E8390_NODMA | E8390_PAGE1 | E8390_STOP, NE_CMD);
  for (i = 0; i < ETHER_ADDR_LEN; i++)
    outb(ne_mac[i], EN1_PHYS + i);
  outb(NESM_START_PG, EN1_CURPAG);
  outb(E8390_NODMA | E8390_PAGE0 | E8390_STOP, NE_CMD);
  if (startp) {
    outb(0xff, EN0_ISR);
    outb(ENISR_ALL, EN0_IMR);
    outb(E8390_NODMA | E8390_PAGE0 | E8390_START, NE_CMD);
    outb(0x00, EN0_TXCR);
    outb(0x04, EN0_RXCR);
  }
}

static void ne_get_8390_hdr(unsigned char *hdr, int ring_page)
{
  if (ne_dmaing)
    return;
  ne_dmaing = 1;
  outb(E8390_NODMA | E8390_PAGE0 | E8390_START, NE_CMD);
  outb(4, EN0_RCNTLO);
  outb(0, EN0_RCNTHI);
  outb(0, EN0_RSARLO);
  outb(ring_page, EN0_RSARHI);
  outb(E8390_RREAD | E8390_START, NE_CMD);
  insb(NE_DATAPORT, hdr, 4);
  outb(ENISR_RDC, EN0_ISR);
  ne_dmaing = 0;
}

static void ne_block_input(unsigned char *buf, int count, int ring_offset)
{
  if (ne_dmaing)
    return;
  ne_dmaing = 1;
  outb(E8390_NODMA | E8390_PAGE0 | E8390_START, NE_CMD);
  outb(count & 0xff, EN0_RCNTLO);
  outb(count >> 8, EN0_RCNTHI);
  outb(ring_offset & 0xff, EN0_RSARLO);
  outb(ring_offset >> 8, EN0_RSARHI);
  outb(E8390_RREAD | E8390_START, NE_CMD);
  insb(NE_DATAPORT, buf, count);
  outb(ENISR_RDC, EN0_ISR);
  ne_dmaing = 0;
}

static void ne_block_output(const unsigned char *buf, int count, int start_page)
{
  unsigned long dma_start;
  if (ne_dmaing)
    return;
  ne_dmaing = 1;
  outb(E8390_PAGE0 | E8390_START | E8390_NODMA, NE_CMD);
  outb(ENISR_RDC, EN0_ISR);
  outb(count & 0xff, EN0_RCNTLO);
  outb(count >> 8, EN0_RCNTHI);
  outb(0x00, EN0_RSARLO);
  outb(start_page, EN0_RSARHI);
  outb(E8390_RWRITE | E8390_START, NE_CMD);
  outsb(NE_DATAPORT, buf, count);
  dma_start = jiffies;
  while ((inb(EN0_ISR) & ENISR_RDC) == 0) {
    if (jiffies - dma_start > 2) {
      ne_reset_8390();
      ne_init_8390(1);
      break;
    }
  }
  outb(ENISR_RDC, EN0_ISR);
  ne_dmaing = 0;
}

static void ne_trigger_send(unsigned int length, int start_page)
{
  outb(E8390_NODMA | E8390_PAGE0, NE_CMD);
  outb(length & 0xff, EN0_TCNTLO);
  outb(length >> 8, EN0_TCNTHI);
  outb(start_page, EN0_TPSR);
  outb(E8390_NODMA | E8390_TRANS | E8390_START, NE_CMD);
}

static int ne_rx_overrun(void)
{
  unsigned char was_txing;
  was_txing = inb(NE_CMD) & E8390_TRANS;
  outb(E8390_NODMA | E8390_PAGE0 | E8390_STOP, NE_CMD);
  mdelay(10);
  outb(0x00, EN0_RCNTLO);
  outb(0x00, EN0_RCNTHI);
  outb(E8390_TXCONFIG_LOOP, EN0_TXCR);
  outb(E8390_NODMA | E8390_PAGE0 | E8390_START, NE_CMD);
  outb(ENISR_OVER, EN0_ISR);
  outb(0x00, EN0_TXCR);
  return was_txing;
}
|}

(* Fix-up: the overrun routine references a loopback constant. *)
let ne2000_c =
  String.concat ""
    [ "#define E8390_TXCONFIG_LOOP 0x02\n"; ne2000_c ]

(* {1 CDevil environments} *)

let constraint_of_type (ty : Dtype.t) : C_lang.constraint_ =
  match ty with
  | Dtype.Bool -> C_lang.One_of [ 0; 1 ]
  | Dtype.Int { signed = false; bits } -> C_lang.Range (0, (1 lsl bits) - 1)
  | Dtype.Int { signed = true; bits } ->
      C_lang.Range (-(1 lsl (bits - 1)), (1 lsl (bits - 1)) - 1)
  | Dtype.Int_set { values; _ } -> C_lang.One_of values
  | Dtype.Enum _ -> C_lang.One_of (Dtype.writable_raws ty)

let cdevil_env (device : Ir.device) ~prefix : C_lang.env =
  let upper = String.uppercase_ascii in
  let consts = ref [] in
  let funcs = ref [] in
  let add_fun name fsig = funcs := (name, fsig) :: !funcs in
  List.iter
    (fun (v : Ir.var) ->
      (match v.v_type with
      | Dtype.Enum cases ->
          List.iter
            (fun (c : Dtype.enum_case) ->
              match Bitpat.value c.pattern with
              | Some raw ->
                  consts :=
                    ( Printf.sprintf "%s_%s_%s" (upper prefix) (upper v.v_name)
                        (upper c.case_name),
                      Some raw )
                    :: !consts
              | None -> ())
            cases
      | Dtype.Bool | Dtype.Int _ | Dtype.Int_set _ -> ());
      add_fun
        (Printf.sprintf "%s_get_%s" prefix v.v_name)
        { C_lang.arity = 0; args = [] };
      let writable =
        v.v_chunks = []
        || List.exists
             (fun (c : Ir.chunk) ->
               match Ir.find_reg device c.c_reg with
               | Some r -> Ir.reg_writable r
               | None -> false)
             v.v_chunks
      in
      if writable then
        add_fun
          (Printf.sprintf "%s_set_%s" prefix v.v_name)
          { C_lang.arity = 1; args = [ constraint_of_type v.v_type ] };
      if v.v_behaviour.b_block then begin
        add_fun
          (Printf.sprintf "%s_read_%s_block" prefix v.v_name)
          { C_lang.arity = 2; args = [] };
        add_fun
          (Printf.sprintf "%s_write_%s_block" prefix v.v_name)
          { C_lang.arity = 2; args = [] }
      end)
    device.d_vars;
  List.iter
    (fun (s : Ir.strct) ->
      add_fun
        (Printf.sprintf "%s_get_%s" prefix s.s_name)
        { C_lang.arity = 0; args = [] };
      let field_constraints =
        List.map
          (fun fname ->
            match Ir.find_var device fname with
            | Some v -> constraint_of_type v.v_type
            | None -> C_lang.Any)
          s.s_fields
      in
      add_fun
        (Printf.sprintf "%s_set_%s" prefix s.s_name)
        { C_lang.arity = List.length s.s_fields; args = field_constraints })
    device.d_structs;
  add_fun (prefix ^ "_init")
    { C_lang.arity = List.length device.d_ports; args = [] };
  {
    C_lang.vars = c_env.C_lang.vars;
    consts = !consts @ c_env.C_lang.consts;
    funcs = !funcs @ c_env.C_lang.funcs;
  }

(* {1 Busmouse, CDevil} *)

let busmouse_cdevil =
  {|
static int mouse_buttons;
static int mouse_dx;
static int mouse_dy;

static void mouse_interrupt(void)
{
  bm_get_mouse_state();
  mouse_dx += bm_get_dx();
  mouse_dy += bm_get_dy();
  mouse_buttons = bm_get_buttons();
  bm_set_interrupt(BM_INTERRUPT_ENABLE);
}

static int mouse_probe(void)
{
  bm_init(0x23c);
  bm_set_signature(0x5a);
  udelay(100);
  if (bm_get_signature() != 0x5a)
    return 0;
  bm_set_config(BM_CONFIG_DEFAULT_MODE);
  bm_set_interrupt(BM_INTERRUPT_DISABLE);
  return 1;
}
|}

(* {1 IDE, CDevil} *)

let ide_cdevil =
  {|
#define SECTOR_WORDS 256

static int ide_wait_ready(void)
{
  int timeout = 10000;
  ide_get_ide_status();
  while (ide_get_bsy()) {
    if (--timeout == 0)
      return 1;
    udelay(10);
    ide_get_ide_status();
  }
  return 0;
}

static void ide_setup_command(unsigned int block, int nsect, int cmd)
{
  ide_set_sector_count(nsect & 0xff);
  ide_set_lba_low(block & 0xff);
  ide_set_lba_mid((block >> 8) & 0xff);
  ide_set_lba_high((block >> 16) & 0xff);
  ide_set_lba_enable(IDE_LBA_ENABLE_LBA_MODE);
  ide_set_drive_select(IDE_DRIVE_SELECT_MASTER);
  ide_set_head((block >> 24) & 0x0f);
  ide_set_command(cmd);
}

static int ide_wait_drq(void)
{
  ide_get_ide_status();
  while (!ide_get_drq()) {
    if (ide_get_err())
      return 1;
    ide_get_ide_status();
  }
  if (ide_get_error_flags())
    return 1;
  return 0;
}

static int ide_read_block(unsigned int block, int nsect, unsigned short *buffer)
{
  int i;
  if (ide_wait_ready())
    return 1;
  ide_setup_command(block, nsect, IDE_COMMAND_READ_SECTORS);
  for (i = 0; i < nsect; i++) {
    if (ide_wait_drq())
      return 1;
    ide_read_Ide_data_block(buffer, SECTOR_WORDS);
    buffer += SECTOR_WORDS;
  }
  return 0;
}

static int ide_dma_read(unsigned int block, int nsect, unsigned long prd)
{
  if (ide_wait_ready())
    return 1;
  piix_set_prd_address(prd);
  ide_setup_command(block, nsect, IDE_COMMAND_READ_DMA);
  piix_set_bm_direction(PIIX_BM_DIRECTION_BM_TO_MEMORY);
  piix_set_bm_engine(PIIX_BM_ENGINE_BM_START);
  while (piix_get_bm_irq() != PIIX_BM_IRQ_RAISED)
    udelay(10);
  piix_set_bm_irq(PIIX_BM_IRQ_CLEAR_IRQ);
  piix_set_bm_engine(PIIX_BM_ENGINE_BM_STOP);
  return 0;
}

static void ide_soft_reset(void)
{
  ide_set_soft_reset(IDE_SOFT_RESET_RESET);
  udelay(10);
  ide_set_soft_reset(IDE_SOFT_RESET_RUN);
  ide_get_ide_status();
  while (ide_get_bsy())
    ide_get_ide_status();
}
|}

(* {1 NE2000, CDevil} *)

let ne2000_cdevil =
  {|
#define NESM_START_PG 0x40
#define NESM_STOP_PG 0x80
#define ETHER_ADDR_LEN 6

static int ne_dmaing;

static void ne_stop(void)
{
  ne_set_st(NE_ST_STOP);
  ne_set_irq_mask(0x00);
}

static void ne_init_8390(int startp)
{
  ne_set_st(NE_ST_STOP);
  ne_set_word_transfer(NE_WORD_TRANSFER_BYTE_WIDE);
  ne_set_loopback_select(NE_LOOPBACK_SELECT_NORMAL_OP);
  ne_set_fifo_threshold(2);
  ne_set_remote_count(0);
  ne_set_accept_broadcast(1);
  ne_set_loopback_mode(1);
  ne_set_page_start(NESM_START_PG);
  ne_set_page_stop(NESM_STOP_PG);
  ne_set_boundary(NESM_START_PG);
  ne_set_mac0(0x02);
  ne_set_mac1(0x00);
  ne_set_mac2(0x00);
  ne_set_mac3(0x00);
  ne_set_mac4(0x00);
  ne_set_mac5(0x01);
  ne_set_current_page(NESM_START_PG);
  ne_set_interrupt_status(NE_PRX_CLEAR_PRX, NE_PTX_CLEAR_PTX,
                          NE_RXE_CLEAR_RXE, NE_TXE_CLEAR_TXE,
                          NE_OVW_CLEAR_OVW, NE_CNT_CLEAR_CNT,
                          NE_RDC_CLEAR_RDC, NE_RST_CLEAR_RST);
  ne_set_irq_mask(0x3f);
  if (startp)
    ne_set_st(NE_ST_START);
}

static void ne_get_8390_hdr(unsigned int *hdr, int ring_page)
{
  if (ne_dmaing)
    return;
  ne_dmaing = 1;
  ne_set_remote_start(ring_page << 8);
  ne_set_remote_count(4);
  ne_set_rd(NE_RD_REMOTE_READ);
  ne_read_remote_data_block(hdr, 4);
  ne_set_rdc(NE_RDC_CLEAR_RDC);
  ne_dmaing = 0;
}

static void ne_block_input(unsigned int *buf, int count, int ring_offset)
{
  if (ne_dmaing)
    return;
  ne_dmaing = 1;
  ne_set_remote_start(ring_offset);
  ne_set_remote_count(count);
  ne_set_rd(NE_RD_REMOTE_READ);
  ne_read_remote_data_block(buf, count);
  ne_set_rdc(NE_RDC_CLEAR_RDC);
  ne_dmaing = 0;
}

static void ne_block_output(const unsigned int *buf, int count, int start_page)
{
  if (ne_dmaing)
    return;
  ne_dmaing = 1;
  ne_set_rdc(NE_RDC_CLEAR_RDC);
  ne_set_remote_start(start_page << 8);
  ne_set_remote_count(count);
  ne_set_rd(NE_RD_REMOTE_WRITE);
  ne_write_remote_data_block(buf, count);
  ne_set_rdc(NE_RDC_CLEAR_RDC);
  ne_dmaing = 0;
}

static void ne_trigger_send(unsigned int length, int start_page)
{
  ne_set_tx_page_start(start_page);
  ne_set_tx_byte_count(length);
  ne_set_txp(NE_TXP_TRANSMIT);
}

static void ne_rx_overrun(void)
{
  ne_set_st(NE_ST_STOP);
  mdelay(10);
  ne_set_remote_count(0);
  ne_set_loopback_mode(1);
  ne_set_st(NE_ST_START);
  ne_set_ovw(NE_OVW_CLEAR_OVW);
  ne_set_loopback_mode(0);
}
|}

let busmouse_cdevil_env () =
  cdevil_env (Devil_specs.Specs.busmouse ()) ~prefix:"bm"

let ide_cdevil_env () =
  let ide = cdevil_env (Devil_specs.Specs.ide ()) ~prefix:"ide" in
  let piix = cdevil_env (Devil_specs.Specs.piix4_ide ()) ~prefix:"piix" in
  {
    C_lang.vars = ide.C_lang.vars;
    consts = piix.C_lang.consts @ ide.C_lang.consts;
    funcs = piix.C_lang.funcs @ ide.C_lang.funcs;
  }

let ne2000_cdevil_env () =
  cdevil_env (Devil_specs.Specs.ne2000 ()) ~prefix:"ne"

(* {1 16550 UART — the extension device as a fourth mutation-study row} *)

let uart_c =
  {|
#define COM1 0x3f8
#define UART_RX 0x3f8
#define UART_TX 0x3f8
#define UART_DLL 0x3f8
#define UART_DLM 0x3f9
#define UART_IER 0x3f9
#define UART_FCR 0x3fa
#define UART_LCR 0x3fb
#define UART_MCR 0x3fc
#define UART_LSR 0x3fd
#define UART_MSR 0x3fe
#define UART_LCR_DLAB 0x80
#define UART_LCR_8N1 0x03
#define UART_LSR_DR 0x01
#define UART_LSR_THRE 0x20
#define UART_FCR_ENABLE 0x01
#define UART_FCR_CLEAR 0x06
#define UART_MCR_DTR 0x01
#define UART_MCR_RTS 0x02
#define UART_MCR_LOOP 0x10
#define BASE_BAUD 115200

static void serial_set_baud(int baud)
{
  int divisor = BASE_BAUD / baud;
  int lcr = inb(UART_LCR);
  outb(lcr | UART_LCR_DLAB, UART_LCR);
  outb(divisor & 0xff, UART_DLL);
  outb((divisor >> 8) & 0xff, UART_DLM);
  outb(lcr & ~UART_LCR_DLAB, UART_LCR);
}

static void serial_init(int baud)
{
  outb(0x00, UART_IER);
  serial_set_baud(baud);
  outb(UART_LCR_8N1, UART_LCR);
  outb(UART_FCR_ENABLE | UART_FCR_CLEAR, UART_FCR);
  outb(UART_MCR_DTR | UART_MCR_RTS, UART_MCR);
}

static void serial_putc(int c)
{
  while ((inb(UART_LSR) & UART_LSR_THRE) == 0)
    udelay(1);
  outb(c, UART_TX);
}

static int serial_getc(void)
{
  while ((inb(UART_LSR) & UART_LSR_DR) == 0)
    udelay(1);
  return inb(UART_RX);
}

static int serial_loop_test(void)
{
  int mcr = inb(UART_MCR);
  int ok;
  outb(mcr | UART_MCR_LOOP, UART_MCR);
  outb(0x5a, UART_TX);
  ok = inb(UART_RX) == 0x5a;
  outb(mcr & ~UART_MCR_LOOP, UART_MCR);
  return ok;
}
|}

let uart_cdevil =
  {|
#define BASE_BAUD 115200

static void serial_set_baud(int baud)
{
  uart_set_divisor(BASE_BAUD / baud);
}

static void serial_init(int baud)
{
  uart_set_irq_rx_available(0);
  uart_set_irq_tx_empty(0);
  serial_set_baud(baud);
  uart_set_word_length(UART_WORD_LENGTH_BITS8);
  uart_set_two_stop_bits(0);
  uart_set_parity_mode(0);
  uart_set_fifo_enable(1);
  uart_set_rx_fifo_reset(1);
  uart_set_tx_fifo_reset(1);
  uart_set_dtr(1);
  uart_set_rts(1);
}

static void serial_putc(int c)
{
  uart_get_line_status();
  while (uart_get_thr_empty() == 0) {
    udelay(1);
    uart_get_line_status();
  }
  uart_set_tx_data(c);
}

static int serial_getc(void)
{
  uart_get_line_status();
  while (uart_get_data_ready() == 0) {
    udelay(1);
    uart_get_line_status();
  }
  return uart_get_rx_data();
}

static int serial_loop_test(void)
{
  int ok;
  uart_set_loopback(1);
  uart_set_tx_data(0x5a);
  ok = uart_get_rx_data() == 0x5a;
  uart_set_loopback(0);
  return ok;
}
|}

let uart_cdevil_env () =
  cdevil_env (Devil_specs.Specs.uart16550 ()) ~prefix:"uart"
